type info = {
  id : string;
  severity : Diagnostic.severity;
  title : string;
  grounding : string;
}

let r id severity title grounding = { id; severity; title; grounding }

let all =
  [ (* structural well-formedness *)
    r "WF00" Diagnostic.Error "program header sanity"
      "Sec. 3: devices are qubits (d=2) or ququarts (d=4); encoding mode fixes d";
    r "WF01" Diagnostic.Error "duplicate device in parts" "a pulse touches each device once";
    r "WF02" Diagnostic.Error "gate dimension mismatch"
      "an op's unitary acts on its virtual wires: dim = 2^|targets|";
    r "WF03" Diagnostic.Error "target device missing from parts"
      "every virtual wire an op acts on belongs to a touched device";
    r "WF04" Diagnostic.Error "duplicate target wire" "virtual wires of one op are distinct";
    r "WF05" Diagnostic.Error "placement map not injective"
      "Sec. 5.2: the mapping assigns each logical qubit its own (device, slot)";
    r "WF06" Diagnostic.Error "device or slot out of range"
      "slots are {0} on qubits, {0, 1} on ququarts (Sec. 3 encoding)";
    r "WF07" Diagnostic.Error "occupancy annotation out of range"
      "a device holds 0, 1 or 2 qubits (Sec. 3)";
    r "WF08" Diagnostic.Warning "op touches nothing" "empty parts or targets";
    r "WF09" Diagnostic.Error "gate matrix not unitary" "ops are calibrated unitary pulses";
    (* logical-circuit checks *)
    r "CIR01" Diagnostic.Error "gate operand out of range" "gates act on declared qubits";
    r "CIR02" Diagnostic.Error "duplicate gate operands" "gate operands are distinct";
    r "CIR03" Diagnostic.Error "malformed gate"
      "a gate takes as many operands as its arity; a Custom gate's matrix must be a \
       square unitary of dimension 2^arity";
    r "CIR04" Diagnostic.Error "logical qubit count mismatch"
      "the compiled program must cover the source circuit's register";
    (* occupancy dataflow *)
    r "OCC01" Diagnostic.Error "occ_before disagrees with dataflow"
      "per-op bookkeeping must replay from initial_map (Sec. 5)";
    r "OCC02" Diagnostic.Error "gate on an empty slot"
      "pulses act on stored qubits (Sec. 3.2 partially-occupied ququarts)";
    r "OCC03" Diagnostic.Error "malformed ENC"
      "Sec. 4.1: ENC merges two lone qubits into one ququart";
    r "OCC04" Diagnostic.Error "malformed DEC"
      "Sec. 4.1: ENC-dagger splits a full ququart into two lone qubits";
    r "OCC05" Diagnostic.Error "noise_role inconsistent with occupancy"
      "Sec. 6.3: error channels are drawn per stored-qubit subspace";
    r "OCC06" Diagnostic.Error "final_map disagrees with dataflow"
      "the final placement must match the replayed slot occupancy";
    r "OCC07" Diagnostic.Error "occ_after disagrees with dataflow"
      "per-op bookkeeping must replay from initial_map (Sec. 5)";
    (* topology legality *)
    r "TOP01" Diagnostic.Error "op on non-adjacent devices"
      "Sec. 5.3: multi-device pulses need coupled (neighbouring) devices";
    r "TOP02" Diagnostic.Error "topology too small"
      "the device count must fit the topology (Sec. 6.2 mesh)";
    r "TOP03" Diagnostic.Error "too many devices in one pulse"
      "pulses span at most 2 devices on ququarts, 3 (iToffoli) on qubits";
    (* schedule safety *)
    r "SCHED01" Diagnostic.Error "ops overlap on a device"
      "Sec. 5.5: ASAP scheduling serializes each device";
    r "SCHED02" Diagnostic.Error "total_duration off the critical path"
      "Sec. 5.5: duration = longest device-dependency chain of the ASAP schedule";
    r "SCHED03" Diagnostic.Error "invalid duration" "durations are finite and non-negative";
    (* calibration & strategy conformance *)
    r "CAL01" Diagnostic.Error "no calibration entry matches"
      "Tables 1-2: every pulse carries a calibrated duration and fidelity";
    r "CAL02" Diagnostic.Error "calibration illegal for strategy"
      "Sec. 6.2: each environment exposes its own gate set";
    r "CAL03" Diagnostic.Error "ww pulse on two-level devices"
      "levels |2>/|3> do not exist on bare qubits (Fig. 9b)";
    r "CAL04" Diagnostic.Warning "touches_ww inconsistent with occupancy"
      "Fig. 9b: pulses touching levels |2>/|3> scale with the ww error knob";
    (* semantic equivalence by sparse basis replay *)
    r "EQ00" Diagnostic.Info "equivalence check skipped"
      "sparse replay: skipped past 4096 amplitudes, 62 register bits or the caller's bound";
    r "EQ01" Diagnostic.Error "physical program is not equivalent to the circuit"
      "compilation preserves the circuit unitary up to global phase (Sec. 5)";
    r "EQ02" Diagnostic.Error "state leaks out of the computational subspace"
      "Sec. 6.4: ideal execution keeps support on the encoded subspace";
    (* stabilizer propagation *)
    r "STAB00" Diagnostic.Info "stabilizer analysis partial or skipped"
      "Clifford tableaux only track H/S/X/Y/Z/CX/CZ/SWAP segments exactly";
    r "STAB01" Diagnostic.Info "optimizer output certified equivalent"
      "tableau equality proves unitary equality up to global phase at any width";
    r "STAB02" Diagnostic.Warning "identity-composing gate run"
      "a Clifford run conjugating every Pauli to itself is removable dead code";
    r "STAB03" Diagnostic.Error "optimizer output not equivalent"
      "stabilizer images diverge: simplification changed the circuit unitary";
    (* leakage reachability *)
    r "LEAK01" Diagnostic.Warning "two-qubit-only pulse reachable in an encoded state"
      "Fig. 9b: a pulse not calibrated for |2>/|3> sees a device that can hold them";
    r "LEAK02" Diagnostic.Warning "provably dead ENC/DEC pair"
      "Sec. 4.1: an encode immediately undone by its decode wastes two ww pulses";
    r "LEAK03" Diagnostic.Info "reachable-level summary"
      "Sec. 3: the reachable level sets bound every state the schedule can prepare";
    (* EPS accounting *)
    r "COST01" Diagnostic.Error "op fold disagrees with the EPS oracle"
      "Tables 1-2: the per-op success product, pulse time and error budget must \
       reproduce Eps.estimate and Eps.label_breakdown exactly";
    r "COST03" Diagnostic.Info "duration and EPS summary"
      "Sec. 6: critical path, serialized pulse time, gate EPS and error budget";
    (* commutation-aware liveness *)
    r "LIVE00" Diagnostic.Info "liveness analysis skipped" "needs the source circuit";
    r "LIVE01" Diagnostic.Warning "cancellable gate pair separated by commuting gates"
      "gates commuting with everything between them cancel; peephole only sees neighbours";
    r "LIVE02" Diagnostic.Warning "gate is an identity rotation"
      "rotations by multiples of 2*pi are removable dead code";
    r "LIVE03" Diagnostic.Info "fuseable rotation pair separated by commuting gates"
      "same-axis rotations merge once commuting gates are moved aside";
    (* static resource certification (waltz_analysis, `waltz_cli budget`) *)
    r "RES00" Diagnostic.Info "resource certificate"
      "sound static bounds on peak bytes, modeled duration and pool seats \
       for one (program x model x batch x domains) configuration";
    r "RES01" Diagnostic.Error "certified demand exceeds the admission budget"
      "the certificate's peak-byte or worst-case-duration bound is over the \
       user limit, so an admission controller must reject the job unrun";
    r "RES02" Diagnostic.Error "certificate diverges from the observed run"
      "certificates are sound by construction; telemetry observing more \
       memory, work or time than certified is an analysis bug";
    r "RES03" Diagnostic.Warning "cache residency dominates the working set"
      "worst-case program and kernel-memo cache residency exceeds the \
       live working set by the configured ratio: eviction pressure, not the \
       program, will drive peak memory";
    (* concurrency sanitizer (waltz_sanitize) *)
    r "RACE00" Diagnostic.Info "sanitizer run summary"
      "instrumented accesses, locks and sites observed by the enabled recorder";
    r "RACE01" Diagnostic.Error "happens-before data race"
      "two accesses to one shared location, at least one a write, with no \
       vector-clock ordering between them: the deterministic trajectory \
       statistics the executor promises are void under a data race";
    r "RACE02" Diagnostic.Warning "lockset discipline violation"
      "Eraser's weaker, schedule-independent claim: no single lock protects \
       every access to the location, so some interleaving can race";
    r "LOCK01" Diagnostic.Error "lock-order cycle"
      "two threads acquiring the same locks in opposite nesting orders can \
       deadlock; the acquisition graph must stay acyclic";
    r "LOCK02" Diagnostic.Error "lock misuse"
      "recursive acquisition or release of an unheld lock: stdlib Mutex is \
       non-reentrant and raises or deadlocks on both";
    r "OWN01" Diagnostic.Error "arena ownership violation"
      "per-domain scratch arenas (Domain.DLS) are single-owner by contract; \
       a foreign domain touching one corrupts hot-loop buffers" ]

let find id = List.find_opt (fun x -> x.id = id) all

let pp_catalog ppf () =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun x ->
      Format.fprintf ppf "%-8s %-8s %s@,         %s@,"
        x.id
        (Diagnostic.severity_label x.severity)
        x.title x.grounding)
    all;
  Format.fprintf ppf "@]"
