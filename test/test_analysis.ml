(* Tests for the static-analysis passes of the checker (stabilizer,
   leakage, cost, liveness), the resource certifier, the SARIF
   writer/validator and the liveness-driven [simplify_deep]. The stabilizer
   and leakage passes are checked against exact simulation (unitaries /
   state-vector replay), cost against the Eps and scheduler oracles,
   liveness against matrix commutation, and the resource certificates
   against the telemetry counters an instrumented run leaves behind. *)
open Waltz_linalg
open Waltz_qudit
open Waltz_circuit
open Waltz_core
open Waltz_verify
open Waltz_analysis
open Test_util
module State = Waltz_sim.State
module Bench = Waltz_benchmarks.Bench_circuits

(* ---- leakage transfer ---- *)

(* The leakage transfer is monotone in the subset order of the per-device
   level masks: a smaller reachable set never maps to a larger one. *)
let test_leakage_lattice_laws () =
  let p = Compile.compile Strategy.mixed_radix_ccz (Bench.by_total_qubits Cuccaro 6) in
  let ops = Array.of_list p.Physical.ops in
  let nd = p.Physical.device_count in
  let r = rng 31 in
  let dim = p.Physical.device_dim in
  let random_mask () = 1 + Rng.int r ((1 lsl dim) - 1) in
  let subset a b = Array.for_all2 (fun x y -> x land lnot y = 0) a b in
  for _ = 1 to 40 do
    let a = Array.init nd (fun _ -> random_mask ()) in
    let b = Array.init nd (fun _ -> random_mask ()) in
    (* sub = a ∩ b ⊆ a: transfer must be monotone. *)
    let sub = Array.map2 ( land ) a b in
    let i = Rng.int r (Array.length ops) in
    let transfer = Leakage.transfer ~device_dim:dim ops.(i) in
    check_bool "transfer monotone" true (subset (transfer sub) (transfer a))
  done

(* ---- stabilizer vs exact unitaries ---- *)

let clifford_1q = [| Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdg |]
let clifford_2q = [| Gate.Cx; Gate.Cz; Gate.Swap |]

let random_clifford r ~n ~len =
  let c = ref (Circuit.empty n) in
  for _ = 1 to len do
    if n >= 2 && Rng.bool r then begin
      let a = Rng.int r n in
      let b = (a + 1 + Rng.int r (n - 1)) mod n in
      c := Circuit.add !c clifford_2q.(Rng.int r (Array.length clifford_2q)) [ a; b ]
    end
    else
      c := Circuit.add !c clifford_1q.(Rng.int r (Array.length clifford_1q)) [ Rng.int r n ]
  done;
  !c

let test_stabilizer_exact_agreement () =
  let r = rng 11 in
  for _ = 1 to 30 do
    let n = 1 + Rng.int r 3 in
    let c1 = random_clifford r ~n ~len:(3 + Rng.int r 6) in
    let c2 = random_clifford r ~n ~len:(3 + Rng.int r 6) in
    let exact =
      Mat.equal_up_to_phase ~tol:1e-12 (Circuit.to_unitary c1) (Circuit.to_unitary c2)
    in
    (match Stabilizer.equivalent c1 c2 with
    | `Equal -> check_bool "tableau-equal pair has equal unitaries" true exact
    | `Different -> check_bool "tableau-distinct pair has distinct unitaries" false exact
    | `Unknown -> Alcotest.fail "Clifford circuit reported Unknown");
    (* U followed by U† must be provably the identity. *)
    let sandwich = Circuit.append c1 (Circuit.reverse c1) in
    (match Stabilizer.tableau_of sandwich with
    | Some tab -> check_bool "U U-dagger has the identity tableau" true (Pauli.is_identity tab)
    | None -> Alcotest.fail "inverse sandwich left the Clifford set");
    check_bool "sandwich equivalent to the empty circuit" true
      (Stabilizer.equivalent sandwich (Circuit.empty n) = `Equal)
  done

let test_identity_runs () =
  let c =
    Circuit.of_gates ~n:2
      [ Gate.make Gate.H [ 0 ]; Gate.make Gate.Cx [ 0; 1 ];
        Gate.make Gate.S [ 1 ]; Gate.make Gate.Sdg [ 1 ];
        Gate.make Gate.T [ 0 ];
        Gate.make Gate.H [ 1 ]; Gate.make Gate.Z [ 1 ]; Gate.make Gate.H [ 1 ];
        Gate.make Gate.X [ 1 ] ]
  in
  let runs = Stabilizer.identity_runs c in
  check_int "two runs found" 2 (List.length runs);
  let r1 = List.nth runs 0 and r2 = List.nth runs 1 in
  check_int "run 1 start" 2 r1.Stabilizer.start;
  check_int "run 1 stop" 3 r1.Stabilizer.stop;
  check_int "run 2 start" 5 r2.Stabilizer.start;
  check_int "run 2 stop" 8 r2.Stabilizer.stop;
  (* Every reported run must really compose to the identity. *)
  List.iter
    (fun { Stabilizer.start; stop } ->
      let gs = List.filteri (fun i _ -> i >= start && i <= stop) c.Circuit.gates in
      mat_equal_phase "run composes to the identity"
        (Circuit.to_unitary (Circuit.of_gates ~n:2 gs))
        (Mat.identity 4))
    runs

(* On a 10-qubit Clifford benchmark, past the old dense replay's 8-qubit
   bound, the tableau proof certifies the optimizer and pinpoints a planted
   identity-composing run, and the sparse equivalence replay decides the
   program (no EQ00). *)
let test_stabilizer_beyond_equivalence_bound () =
  let base = Bench.bernstein_vazirani ~n:10 ~secret:0b101101101 in
  let planted = Circuit.gate_count base in
  let circuit =
    Circuit.append base
      (Circuit.of_gates ~n:10
         [ Gate.make Gate.H [ 3 ]; Gate.make Gate.Z [ 3 ]; Gate.make Gate.H [ 3 ];
           Gate.make Gate.X [ 3 ] ])
  in
  let compiled = Compile.compile Strategy.qubit_only circuit in
  let report = Verify.run (Some circuit) compiled in
  check_bool "equivalence replay decides 10 qubits" true
    (Diagnostic.with_rule "EQ00" report = []);
  check_bool "STAB01 certifies the optimizer at 10 qubits" true
    (Diagnostic.with_rule "STAB01" report <> []);
  check_bool "STAB02 anchors the planted dead run" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.Diagnostic.op_index = Some planted)
       (Diagnostic.with_rule "STAB02" report));
  check_bool "report is clean" true (Diagnostic.is_clean report)

(* ---- leakage vs state-vector replay ---- *)

let test_leakage_agreement_with_simulation () =
  List.iter
    (fun strategy ->
      let p = Compile.compile strategy (Bench.by_total_qubits Cuccaro 6) in
      let masks = Leakage.masks p in
      let dim = p.Physical.device_dim in
      let dims = Array.make p.Physical.device_count dim in
      let allowed = Executor.initial_allowed p in
      let ops = Array.of_list p.Physical.ops in
      let r = rng 4242 in
      for _trial = 1 to 3 do
        let st = State.random_supported r ~dims ~allowed in
        Array.iteri
          (fun i (op : Physical.op) ->
            if op.Physical.targets <> [] then begin
              let devices, u = Executor.lift_gate ~device_dim:dim op in
              State.apply st ~targets:devices u
            end;
            let mask = masks.(i + 1) in
            for d = 0 to p.Physical.device_count - 1 do
              (* Device [d]'s population outside its mask: 1 minus the
                 weight of the indices whose digit [d] the mask allows. *)
              let outside = ref 1. in
              let allowed =
                Array.mapi
                  (fun d' dim -> Array.init dim (fun l -> d' <> d || mask.(d) land (1 lsl l) <> 0))
                  dims
              in
              State.iter_supported ~dims ~allowed (fun idx ->
                  outside := !outside -. State.basis_probability st idx);
              if !outside > 1e-7 then
                Alcotest.failf
                  "%s op %d (%s): device %d has population %g outside the predicted mask %d"
                  strategy.Strategy.name i op.Physical.label d !outside mask.(d)
            done)
          ops
      done)
    [ Strategy.mixed_radix_ccz; Strategy.full_ququart ]

(* Hand-built four-level programs seeding LEAK01/LEAK02 (builders in the
   style of test_verify_fixtures). *)
let part2 ~device ~noise ~before ~after =
  { Physical.device; noise; occ_before = before; occ_after = after }

let mk_op ?(ww = false) ~label ~parts ~targets ~gate (entry : Calibration.entry) =
  { Physical.label;
    parts;
    targets;
    gate;
    duration_ns = entry.Calibration.duration_ns;
    fidelity = entry.Calibration.fidelity;
    touches_ww = ww }

let mk_program ~devices ~initial ~final ops =
  { Physical.strategy = Strategy.mixed_radix_ccz;
    n_logical = Array.length initial;
    device_count = devices;
    device_dim = 4;
    ops;
    initial_map = initial;
    final_map = final;
    schedule_memo = None;
    kernel_memo = None }

let enc_fixture_op =
  mk_op ~ww:true ~label:"ENC"
    ~parts:
      [ part2 ~device:0 ~noise:Physical.Quiet ~before:1 ~after:0;
        part2 ~device:1 ~noise:Physical.P4 ~before:1 ~after:2 ]
    ~targets:[ (0, 1); (1, 0); (1, 1) ]
    ~gate:(Emit.enc_gate ~incoming_slot:1)
    Calibration.enc

let dec_fixture_op =
  mk_op ~ww:true ~label:"ENCdg"
    ~parts:
      [ part2 ~device:0 ~noise:Physical.Quiet ~before:0 ~after:1;
        part2 ~device:1 ~noise:Physical.P4 ~before:2 ~after:1 ]
    ~targets:[ (0, 1); (1, 0); (1, 1) ]
    ~gate:(Mat.adjoint (Emit.enc_gate ~incoming_slot:1))
    Calibration.enc

let test_leak02_dead_enc_dec_pair () =
  let initial = [| (0, 1); (1, 1) |] in
  let p =
    mk_program ~devices:2 ~initial ~final:(Array.copy initial)
      [ enc_fixture_op; dec_fixture_op ]
  in
  let diags = Leakage.check p in
  let leak02 =
    List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "LEAK02") diags
  in
  check_int "one dead pair" 1 (List.length leak02);
  let d = List.hd leak02 in
  check_bool "anchored at the ENC" true (d.Diagnostic.op_index = Some 0);
  check_bool "machine-applicable fix" true (d.Diagnostic.fix = Some "drop ops 0 and 1")

let test_leak01_non_ww_pulse_sees_encoded_state () =
  let initial = [| (0, 1); (1, 1) |] in
  let cz =
    mk_op ~label:"CZ^{11}"
      ~parts:
        [ part2 ~device:0 ~noise:(Physical.P2 1) ~before:0 ~after:0;
          part2 ~device:1 ~noise:(Physical.P2 1) ~before:2 ~after:2 ]
      ~targets:[ (0, 1); (1, 1) ]
      ~gate:Gates.cz
      (Calibration.fq_cz ~slot_a:1 ~slot_b:1)
  in
  let p =
    mk_program ~devices:2 ~initial ~final:(Array.copy initial) [ enc_fixture_op; cz ]
  in
  let diags = Leakage.check p in
  check_bool "LEAK01 fires on the uncalibrated pulse" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.Diagnostic.rule = "LEAK01" && d.Diagnostic.op_index = Some 1)
       diags);
  (* The same pulse marked |2>/|3>-aware is fine. *)
  let p_ok =
    mk_program ~devices:2 ~initial ~final:(Array.copy initial)
      [ enc_fixture_op; { cz with Physical.touches_ww = true } ]
  in
  check_bool "ww-aware pulse is not flagged" true
    (List.for_all
       (fun (d : Diagnostic.t) -> d.Diagnostic.rule <> "LEAK01")
       (Leakage.check p_ok))

(* ---- cost vs scheduler/EPS oracles ---- *)

let test_cost_oracles () =
  let circuit = Bench.by_total_qubits Cuccaro 6 in
  List.iter
    (fun strategy ->
      let p = Compile.compile strategy circuit in
      let diags = Cost.check p in
      List.iter
        (fun (d : Diagnostic.t) ->
          check_bool
            (Printf.sprintf "%s: no cost errors (%s)" strategy.Strategy.name
               d.Diagnostic.message)
            true
            (d.Diagnostic.severity <> Diagnostic.Error))
        diags;
      let critical = Printf.sprintf "critical path %.1f ns " (Physical.total_duration p) in
      check_bool "COST03 reads the scheduler's critical path" true
        (List.exists
           (fun (d : Diagnostic.t) ->
             d.Diagnostic.rule = "COST03"
             && String.starts_with ~prefix:critical d.Diagnostic.message)
           diags))
    [ Strategy.qubit_only; Strategy.mixed_radix_ccz; Strategy.full_ququart ]

(* ---- liveness / commutation ---- *)

let blocked_pair =
  [ Gate.make Gate.Cx [ 0; 1 ]; Gate.make Gate.Z [ 0 ]; Gate.make Gate.X [ 1 ];
    Gate.make Gate.Cx [ 0; 1 ] ]

let test_liveness_events () =
  let c = Circuit.of_gates ~n:2 blocked_pair in
  check_bool "separated CX pair found" true
    (List.mem (Liveness.Cancel (0, 3)) (Liveness.events c));
  check_bool "cancellable pairs" true (Liveness.cancellable_pairs c = [ (0, 3) ]);
  check_bool "LIVE01 with fix" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.Diagnostic.rule = "LIVE01"
         && d.Diagnostic.op_index = Some 0
         && d.Diagnostic.fix = Some "drop gates 0 and 3")
       (Liveness.check c));
  (* Identity rotations are dead and block nothing. *)
  let dead = Circuit.of_gates ~n:1 [ Gate.make (Gate.Rz 0.) [ 0 ] ] in
  check_bool "LIVE02 on identity rotation" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "LIVE02")
       (Liveness.check dead));
  (* Separated same-axis rotations can merge. *)
  let fuse =
    Circuit.of_gates ~n:2
      [ Gate.make (Gate.Rz 0.3) [ 0 ]; Gate.make Gate.X [ 1 ];
        Gate.make (Gate.Rz 0.4) [ 0 ] ]
  in
  check_bool "Fuse event across a commuting gate" true
    (List.mem (Liveness.Fuse (0, 2)) (Liveness.events fuse));
  check_bool "LIVE03 reported" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "LIVE03")
       (Liveness.check fuse))

(* [Gate.commutes] must be sound: whenever it says yes, the matrices agree. *)
let test_commutes_sound () =
  let r = rng 77 in
  let kinds =
    [| Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdg; Gate.T; Gate.Tdg;
       Gate.Rx 0.7; Gate.Ry 1.1; Gate.Rz 0.4; Gate.Phase 0.9; Gate.Cx; Gate.Cz;
       Gate.Swap; Gate.Ccx; Gate.Ccz; Gate.Cswap |]
  in
  let random_gate () =
    let k = kinds.(Rng.int r (Array.length kinds)) in
    let order = [| 0; 1; 2 |] in
    Rng.shuffle_in_place r order;
    Gate.make k (Array.to_list (Array.sub order 0 (Gate.arity k)))
  in
  let commuting = ref 0 in
  for _ = 1 to 400 do
    let a = random_gate () and b = random_gate () in
    if Gate.commutes a b then begin
      incr commuting;
      mat_equal "commutes => matrices commute"
        (Circuit.to_unitary (Circuit.of_gates ~n:3 [ a; b ]))
        (Circuit.to_unitary (Circuit.of_gates ~n:3 [ b; a ]))
    end
  done;
  check_bool "sample exercised commuting pairs" true (!commuting > 40)

(* Liveness facts let simplify_deep remove a pair the peephole (which only
   sees DAG neighbours) provably cannot. *)
let test_simplify_deep_beats_peephole () =
  let c = Circuit.of_gates ~n:2 blocked_pair in
  check_int "peephole keeps all four gates" 4 (Circuit.gate_count (Optimizer.simplify c));
  let deep = Liveness.simplify_deep c in
  check_int "deep cleanup drops the separated pair" 2 (Circuit.gate_count deep);
  mat_equal_phase "deep output is equivalent" (Circuit.to_unitary c)
    (Circuit.to_unitary deep)

let test_simplify_deep_on_benchmark () =
  let base = Bench.bernstein_vazirani ~n:5 ~secret:0b1011 in
  let c = Circuit.append base (Circuit.of_gates ~n:5 blocked_pair) in
  let peep = Optimizer.simplify c in
  let deep = Liveness.simplify_deep c in
  check_bool "deep cleanup beats the peephole on a benchmark" true
    (Circuit.gate_count deep < Circuit.gate_count peep);
  mat_equal_phase "benchmark unitary preserved" (Circuit.to_unitary c)
    (Circuit.to_unitary deep)

(* ---- SARIF ---- *)

let golden_report =
  { Diagnostic.diagnostics =
      [ Diagnostic.error "STAB03"
          "optimizer output NOT equivalent: stabilizer images diverge on the 4-qubit \
           circuit";
        Diagnostic.warning ~op_index:2 ~fix:"drop ops 2 and 5" "LEAK02"
          "ENC at op 2 is decoded at op 5 with no pulse in between: the pair is dead";
        Diagnostic.info "COST03"
          "critical path 120.0 ns (serialized 240.0 ns, 2.00x parallelism); gate EPS \
           0.010000; error budget 0.010000" ];
    ops_checked = 6;
    passes_run = [ "stabilizer"; "leakage"; "cost"; "liveness"; "res" ] }

let golden_sarif =
  {sarif|{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","version":"2.1.0","runs":[{"tool":{"driver":{"name":"waltz_verify","informationUri":"doc/VERIFIER.md","rules":[{"id":"WF00","shortDescription":{"text":"program header sanity"},"help":{"text":"Sec. 3: devices are qubits (d=2) or ququarts (d=4); encoding mode fixes d"},"defaultConfiguration":{"level":"error"}},{"id":"WF01","shortDescription":{"text":"duplicate device in parts"},"help":{"text":"a pulse touches each device once"},"defaultConfiguration":{"level":"error"}},{"id":"WF02","shortDescription":{"text":"gate dimension mismatch"},"help":{"text":"an op's unitary acts on its virtual wires: dim = 2^|targets|"},"defaultConfiguration":{"level":"error"}},{"id":"WF03","shortDescription":{"text":"target device missing from parts"},"help":{"text":"every virtual wire an op acts on belongs to a touched device"},"defaultConfiguration":{"level":"error"}},{"id":"WF04","shortDescription":{"text":"duplicate target wire"},"help":{"text":"virtual wires of one op are distinct"},"defaultConfiguration":{"level":"error"}},{"id":"WF05","shortDescription":{"text":"placement map not injective"},"help":{"text":"Sec. 5.2: the mapping assigns each logical qubit its own (device, slot)"},"defaultConfiguration":{"level":"error"}},{"id":"WF06","shortDescription":{"text":"device or slot out of range"},"help":{"text":"slots are {0} on qubits, {0, 1} on ququarts (Sec. 3 encoding)"},"defaultConfiguration":{"level":"error"}},{"id":"WF07","shortDescription":{"text":"occupancy annotation out of range"},"help":{"text":"a device holds 0, 1 or 2 qubits (Sec. 3)"},"defaultConfiguration":{"level":"error"}},{"id":"WF08","shortDescription":{"text":"op touches nothing"},"help":{"text":"empty parts or targets"},"defaultConfiguration":{"level":"warning"}},{"id":"WF09","shortDescription":{"text":"gate matrix not unitary"},"help":{"text":"ops are calibrated unitary pulses"},"defaultConfiguration":{"level":"error"}},{"id":"CIR01","shortDescription":{"text":"gate operand out of range"},"help":{"text":"gates act on declared qubits"},"defaultConfiguration":{"level":"error"}},{"id":"CIR02","shortDescription":{"text":"duplicate gate operands"},"help":{"text":"gate operands are distinct"},"defaultConfiguration":{"level":"error"}},{"id":"CIR03","shortDescription":{"text":"malformed gate"},"help":{"text":"a gate takes as many operands as its arity; a Custom gate's matrix must be a square unitary of dimension 2^arity"},"defaultConfiguration":{"level":"error"}},{"id":"CIR04","shortDescription":{"text":"logical qubit count mismatch"},"help":{"text":"the compiled program must cover the source circuit's register"},"defaultConfiguration":{"level":"error"}},{"id":"OCC01","shortDescription":{"text":"occ_before disagrees with dataflow"},"help":{"text":"per-op bookkeeping must replay from initial_map (Sec. 5)"},"defaultConfiguration":{"level":"error"}},{"id":"OCC02","shortDescription":{"text":"gate on an empty slot"},"help":{"text":"pulses act on stored qubits (Sec. 3.2 partially-occupied ququarts)"},"defaultConfiguration":{"level":"error"}},{"id":"OCC03","shortDescription":{"text":"malformed ENC"},"help":{"text":"Sec. 4.1: ENC merges two lone qubits into one ququart"},"defaultConfiguration":{"level":"error"}},{"id":"OCC04","shortDescription":{"text":"malformed DEC"},"help":{"text":"Sec. 4.1: ENC-dagger splits a full ququart into two lone qubits"},"defaultConfiguration":{"level":"error"}},{"id":"OCC05","shortDescription":{"text":"noise_role inconsistent with occupancy"},"help":{"text":"Sec. 6.3: error channels are drawn per stored-qubit subspace"},"defaultConfiguration":{"level":"error"}},{"id":"OCC06","shortDescription":{"text":"final_map disagrees with dataflow"},"help":{"text":"the final placement must match the replayed slot occupancy"},"defaultConfiguration":{"level":"error"}},{"id":"OCC07","shortDescription":{"text":"occ_after disagrees with dataflow"},"help":{"text":"per-op bookkeeping must replay from initial_map (Sec. 5)"},"defaultConfiguration":{"level":"error"}},{"id":"TOP01","shortDescription":{"text":"op on non-adjacent devices"},"help":{"text":"Sec. 5.3: multi-device pulses need coupled (neighbouring) devices"},"defaultConfiguration":{"level":"error"}},{"id":"TOP02","shortDescription":{"text":"topology too small"},"help":{"text":"the device count must fit the topology (Sec. 6.2 mesh)"},"defaultConfiguration":{"level":"error"}},{"id":"TOP03","shortDescription":{"text":"too many devices in one pulse"},"help":{"text":"pulses span at most 2 devices on ququarts, 3 (iToffoli) on qubits"},"defaultConfiguration":{"level":"error"}},{"id":"SCHED01","shortDescription":{"text":"ops overlap on a device"},"help":{"text":"Sec. 5.5: ASAP scheduling serializes each device"},"defaultConfiguration":{"level":"error"}},{"id":"SCHED02","shortDescription":{"text":"total_duration off the critical path"},"help":{"text":"Sec. 5.5: duration = longest device-dependency chain of the ASAP schedule"},"defaultConfiguration":{"level":"error"}},{"id":"SCHED03","shortDescription":{"text":"invalid duration"},"help":{"text":"durations are finite and non-negative"},"defaultConfiguration":{"level":"error"}},{"id":"CAL01","shortDescription":{"text":"no calibration entry matches"},"help":{"text":"Tables 1-2: every pulse carries a calibrated duration and fidelity"},"defaultConfiguration":{"level":"error"}},{"id":"CAL02","shortDescription":{"text":"calibration illegal for strategy"},"help":{"text":"Sec. 6.2: each environment exposes its own gate set"},"defaultConfiguration":{"level":"error"}},{"id":"CAL03","shortDescription":{"text":"ww pulse on two-level devices"},"help":{"text":"levels |2>/|3> do not exist on bare qubits (Fig. 9b)"},"defaultConfiguration":{"level":"error"}},{"id":"CAL04","shortDescription":{"text":"touches_ww inconsistent with occupancy"},"help":{"text":"Fig. 9b: pulses touching levels |2>/|3> scale with the ww error knob"},"defaultConfiguration":{"level":"warning"}},{"id":"EQ00","shortDescription":{"text":"equivalence check skipped"},"help":{"text":"sparse replay: skipped past 4096 amplitudes, 62 register bits or the caller's bound"},"defaultConfiguration":{"level":"note"}},{"id":"EQ01","shortDescription":{"text":"physical program is not equivalent to the circuit"},"help":{"text":"compilation preserves the circuit unitary up to global phase (Sec. 5)"},"defaultConfiguration":{"level":"error"}},{"id":"EQ02","shortDescription":{"text":"state leaks out of the computational subspace"},"help":{"text":"Sec. 6.4: ideal execution keeps support on the encoded subspace"},"defaultConfiguration":{"level":"error"}},{"id":"STAB00","shortDescription":{"text":"stabilizer analysis partial or skipped"},"help":{"text":"Clifford tableaux only track H/S/X/Y/Z/CX/CZ/SWAP segments exactly"},"defaultConfiguration":{"level":"note"}},{"id":"STAB01","shortDescription":{"text":"optimizer output certified equivalent"},"help":{"text":"tableau equality proves unitary equality up to global phase at any width"},"defaultConfiguration":{"level":"note"}},{"id":"STAB02","shortDescription":{"text":"identity-composing gate run"},"help":{"text":"a Clifford run conjugating every Pauli to itself is removable dead code"},"defaultConfiguration":{"level":"warning"}},{"id":"STAB03","shortDescription":{"text":"optimizer output not equivalent"},"help":{"text":"stabilizer images diverge: simplification changed the circuit unitary"},"defaultConfiguration":{"level":"error"}},{"id":"LEAK01","shortDescription":{"text":"two-qubit-only pulse reachable in an encoded state"},"help":{"text":"Fig. 9b: a pulse not calibrated for |2>/|3> sees a device that can hold them"},"defaultConfiguration":{"level":"warning"}},{"id":"LEAK02","shortDescription":{"text":"provably dead ENC/DEC pair"},"help":{"text":"Sec. 4.1: an encode immediately undone by its decode wastes two ww pulses"},"defaultConfiguration":{"level":"warning"}},{"id":"LEAK03","shortDescription":{"text":"reachable-level summary"},"help":{"text":"Sec. 3: the reachable level sets bound every state the schedule can prepare"},"defaultConfiguration":{"level":"note"}},{"id":"COST01","shortDescription":{"text":"op fold disagrees with the EPS oracle"},"help":{"text":"Tables 1-2: the per-op success product, pulse time and error budget must reproduce Eps.estimate and Eps.label_breakdown exactly"},"defaultConfiguration":{"level":"error"}},{"id":"COST03","shortDescription":{"text":"duration and EPS summary"},"help":{"text":"Sec. 6: critical path, serialized pulse time, gate EPS and error budget"},"defaultConfiguration":{"level":"note"}},{"id":"LIVE00","shortDescription":{"text":"liveness analysis skipped"},"help":{"text":"needs the source circuit"},"defaultConfiguration":{"level":"note"}},{"id":"LIVE01","shortDescription":{"text":"cancellable gate pair separated by commuting gates"},"help":{"text":"gates commuting with everything between them cancel; peephole only sees neighbours"},"defaultConfiguration":{"level":"warning"}},{"id":"LIVE02","shortDescription":{"text":"gate is an identity rotation"},"help":{"text":"rotations by multiples of 2*pi are removable dead code"},"defaultConfiguration":{"level":"warning"}},{"id":"LIVE03","shortDescription":{"text":"fuseable rotation pair separated by commuting gates"},"help":{"text":"same-axis rotations merge once commuting gates are moved aside"},"defaultConfiguration":{"level":"note"}},{"id":"RES00","shortDescription":{"text":"resource certificate"},"help":{"text":"sound static bounds on peak bytes, modeled duration and pool seats for one (program x model x batch x domains) configuration"},"defaultConfiguration":{"level":"note"}},{"id":"RES01","shortDescription":{"text":"certified demand exceeds the admission budget"},"help":{"text":"the certificate's peak-byte or worst-case-duration bound is over the user limit, so an admission controller must reject the job unrun"},"defaultConfiguration":{"level":"error"}},{"id":"RES02","shortDescription":{"text":"certificate diverges from the observed run"},"help":{"text":"certificates are sound by construction; telemetry observing more memory, work or time than certified is an analysis bug"},"defaultConfiguration":{"level":"error"}},{"id":"RES03","shortDescription":{"text":"cache residency dominates the working set"},"help":{"text":"worst-case program and kernel-memo cache residency exceeds the live working set by the configured ratio: eviction pressure, not the program, will drive peak memory"},"defaultConfiguration":{"level":"warning"}}]}},"columnKind":"utf16CodeUnits","properties":{"opsChecked":6,"passes":["stabilizer","leakage","cost","liveness","res"]},"results":[{"ruleId":"STAB03","ruleIndex":37,"level":"error","message":{"text":"optimizer output NOT equivalent: stabilizer images diverge on the 4-qubit circuit"}},{"ruleId":"LEAK02","ruleIndex":39,"level":"warning","message":{"text":"ENC at op 2 is decoded at op 5 with no pulse in between: the pair is dead"},"locations":[{"logicalLocations":[{"fullyQualifiedName":"op[2]","kind":"instruction"}]}],"properties":{"fix":"drop ops 2 and 5"}},{"ruleId":"COST03","ruleIndex":42,"level":"note","message":{"text":"critical path 120.0 ns (serialized 240.0 ns, 2.00x parallelism); gate EPS 0.010000; error budget 0.010000"}}]}]}|sarif}

let test_sarif_golden () =
  let s = Sarif.to_sarif golden_report in
  (match Sarif.validate s with
  | Ok n -> check_int "golden has three results" 3 n
  | Error e -> Alcotest.failf "golden SARIF rejected: %s" e);
  Alcotest.(check string) "golden SARIF byte-identical" golden_sarif s;
  (* Several reports make one document, one named run each, in order. *)
  let module Json = Waltz_telemetry.Json in
  let runs = Sarif.to_sarif_runs [ ("first", golden_report); ("second", golden_report) ] in
  (match Sarif.validate runs with
  | Ok n -> check_int "two runs of three results" 6 n
  | Error e -> Alcotest.failf "multi-run SARIF rejected: %s" e);
  let run_ids =
    match Json.parse runs with
    | Ok doc -> (
      match Json.member "runs" doc with
      | Some (Json.Arr l) ->
        List.map
          (fun run ->
            match Option.bind (Json.member "automationDetails" run) (Json.member "id") with
            | Some (Json.Str id) -> id
            | _ -> Alcotest.fail "run without automationDetails.id")
          l
      | _ -> Alcotest.fail "no runs array")
    | Error e -> Alcotest.failf "multi-run SARIF unparsable: %s" e
  in
  Alcotest.(check (list string)) "runs in report order" [ "first"; "second" ] run_ids

let test_sarif_validator_rejects () =
  (match Sarif.validate "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match Sarif.validate "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty document accepted");
  (* The plain JSON dump is not SARIF. *)
  (match Sarif.validate (Sarif.to_json golden_report) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-SARIF JSON accepted");
  (* A result referencing a rule outside the declared catalog must fail. *)
  let rogue =
    { golden_report with
      Diagnostic.diagnostics = [ Diagnostic.error "ZZZ99" "not a catalogued rule" ] }
  in
  (match Sarif.validate (Sarif.to_sarif rogue) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undeclared ruleId accepted");
  (* A driver that declares no rule catalog falls back to the registered
     Rules catalog: known ids pass, unknown ids are rejected rather than
     silently accepted. *)
  let naked id =
    Printf.sprintf
      {|{"version":"2.1.0","runs":[{"tool":{"driver":{"name":"x"}},"results":[{"ruleId":"%s","level":"note","message":{"text":"m"}}]}]}|}
      id
  in
  (match Sarif.validate (naked "RES00") with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "catalogued rule without driver.rules: %d results" n
  | Error e -> Alcotest.failf "catalogued rule without driver.rules rejected: %s" e);
  match Sarif.validate (naked "ZZZ99") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown ruleId accepted when driver declares no rules"

(* SARIF goes through the shared JSON parser, so \u escapes decode to
   UTF-8 (a ruleId spelled with one must still match the catalog) and a
   malformed escape is rejected rather than read as '?'. *)
let test_sarif_unicode_escapes () =
  let module Json = Waltz_telemetry.Json in
  let doc ~rule ~text =
    Printf.sprintf
      {|{"version":"2.1.0","runs":[{"tool":{"driver":{"name":"x"}},"results":[{"ruleId":"%s","level":"note","message":{"text":"%s"}}]}]}|}
      rule text
  in
  (match Sarif.validate (doc ~rule:{|RES0\u0030|} ~text:{|caf\u00e9|}) with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "escaped document: %d results" n
  | Error e -> Alcotest.failf "escaped document rejected: %s" e);
  (match Json.parse {|["caf\u00e9", "\udc00"]|} with
  | Ok (Json.Arr [ Json.Str e; Json.Str half ]) ->
    Alcotest.(check string) "\\u00e9 decodes to UTF-8" "caf\xc3\xa9" e;
    Alcotest.(check string) "a surrogate half is U+FFFD" "\xef\xbf\xbd" half
  | Ok _ -> Alcotest.fail "unexpected JSON shape"
  | Error e -> Alcotest.failf "escapes rejected: %s" e);
  List.iter
    (fun text ->
      match Sarif.validate (doc ~rule:"RES00" ~text) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad escape %s accepted" text)
    [ {|\uZZZZ|}; {|\u12|}; {|\u1_23|} ]

(* ---- Verify.run over the analysis passes ---- *)

let test_verify_run_report () =
  let circuit = Bench.by_total_qubits Cuccaro 6 in
  let p = Compile.compile Strategy.mixed_radix_ccz circuit in
  let report = Verify.run (Some circuit) p in
  check_bool "passes run in order" true
    (report.Diagnostic.passes_run = List.map Verify.pass_name Verify.all_passes);
  check_int "ops checked" (List.length p.Physical.ops) report.Diagnostic.ops_checked;
  (* Every emitted rule id must be in the shared catalog, and findings that
     point at a specific op/gate must carry the anchor. *)
  List.iter
    (fun (d : Diagnostic.t) ->
      check_bool (Printf.sprintf "rule %s catalogued" d.Diagnostic.rule) true
        (Rules.find d.Diagnostic.rule <> None);
      match d.Diagnostic.rule with
      | "STAB02" | "LEAK01" | "LEAK02" | "LIVE01" | "LIVE02" | "LIVE03" ->
        check_bool (d.Diagnostic.rule ^ " carries op_index") true
          (d.Diagnostic.op_index <> None)
      | _ -> ())
    report.Diagnostic.diagnostics;
  (* Deterministic: a second run serializes bit-identically. *)
  Alcotest.(check string) "SARIF deterministic across runs"
    (Sarif.to_sarif report)
    (Sarif.to_sarif (Verify.run (Some circuit) p));
  (match Sarif.validate (Sarif.to_sarif report) with
  | Ok n -> check_int "result count matches" (List.length report.Diagnostic.diagnostics) n
  | Error e -> Alcotest.failf "real report rejected by validator: %s" e);
  let only_cost = Verify.run ~passes:[ Verify.Cost_pass ] (Some circuit) p in
  check_bool "pass selection" true (only_cost.Diagnostic.passes_run = [ "cost" ]);
  let skipped = Verify.run None p in
  check_bool "STAB00 skip without a circuit" true
    (Diagnostic.with_rule "STAB00" skipped <> []);
  check_bool "LIVE00 skip without a circuit" true
    (Diagnostic.with_rule "LIVE00" skipped <> [])

let test_pass_names_roundtrip () =
  List.iter
    (fun pass ->
      check_bool (Verify.pass_name pass) true
        (Verify.pass_of_name (Verify.pass_name pass) = Some pass))
    Verify.all_passes;
  check_bool "unknown pass name" true (Verify.pass_of_name "bogus" = None)

(* ---- resource certificates ---- *)

module Telemetry = Waltz_telemetry.Telemetry
module Executor = Waltz_core.Executor

let rule_ids diags = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.rule) diags

(* The acceptance gate for the RES family: across benchmark family x
   strategy x batch x domains, an instrumented run must never observe more
   memory, work or modeled time than the certificate promises (zero RES02),
   and the raw byte counters must sit under the certified peak. *)
let test_resource_soundness_grid () =
  let grid_circuits =
    [ ("cuccaro-5", Bench.by_total_qubits Cuccaro 5);
      ("cnu-5", Bench.by_total_qubits Cnu 5) ]
  in
  let grid_strategies = [ Strategy.mixed_radix_ccz; Strategy.full_ququart ] in
  let trajectories = 6 in
  List.iter
    (fun (cname, circuit) ->
      List.iter
        (fun strategy ->
          List.iter
            (fun batch ->
              List.iter
                (fun domains ->
                  let label =
                    Printf.sprintf "%s/%s b%d d%d" cname strategy.Strategy.name batch
                      domains
                  in
                  let compiled = Compile.compile strategy circuit in
                  let cert =
                    Resource.certify ~trajectories ~batch ~domains compiled
                  in
                  (* Single-run readback window: reset, run once, check. *)
                  Telemetry.reset ();
                  Telemetry.enable ();
                  ignore
                    (Executor.simulate_detailed
                       ~config:
                         { Executor.model = Waltz_noise.Noise.default;
                           trajectories;
                           base_seed = 2023 }
                       ~domains ~batch compiled);
                  let observed_block =
                    Telemetry.Metrics.counter "executor.workspace.block_bytes"
                  in
                  let observed_plan = Telemetry.Metrics.counter "executor.plan.bytes" in
                  let diags = Resource.check_observed cert in
                  Telemetry.disable ();
                  List.iter
                    (fun (d : Diagnostic.t) ->
                      if d.Diagnostic.rule = "RES02" then
                        Alcotest.failf "%s: certificate diverged: %s" label
                          d.Diagnostic.message)
                    diags;
                  check_bool (label ^ ": certified peak covers observed bytes") true
                    (cert.Resource.peak_bytes >= observed_block + observed_plan);
                  check_bool (label ^ ": schedule is the makespan") true
                    (cert.Resource.schedule_ns = Physical.total_duration compiled))
                [ 1; 2 ])
            [ 1; 5 ])
        grid_strategies)
    grid_circuits

let test_resource_budget_res01 () =
  let circuit = Bench.by_total_qubits Cuccaro 5 in
  let compiled = Compile.compile Strategy.mixed_radix_ccz circuit in
  let cert = Resource.certify ~trajectories:10 compiled in
  check_bool "no limits, no diagnostics" true
    (Resource.check_budget cert { Resource.limit_bytes = None; limit_ms = None } = []);
  check_bool "exact limits admit" true
    (Resource.check_budget cert
       { Resource.limit_bytes = Some cert.Resource.peak_bytes;
         limit_ms = Some (cert.Resource.total_ns.Resource.hi /. 1e6) }
    = []);
  let over =
    Resource.check_budget cert
      { Resource.limit_bytes = Some (cert.Resource.peak_bytes - 1);
        limit_ms = Some (cert.Resource.total_ns.Resource.hi /. 1e6 /. 2.) }
  in
  check_int "both limits breached" 2 (List.length over);
  List.iter
    (fun (d : Diagnostic.t) ->
      check_bool "RES01 severity is error" true (d.Diagnostic.severity = Diagnostic.Error))
    over;
  check_bool "both are RES01" true (rule_ids over = [ "RES01"; "RES01" ])

(* Past max_int the certificate is refused, not wrapped. cnu-28 (27
   ququarts) still counts, and its 5.8e17-byte peak trips RES01. cnu-30
   (29 ququarts) has 4^29 amplitudes, whose state bytes pass max_int;
   cnu-33 (33 ququarts) has an amplitude count past max_int, which must
   not reach Kernel.compile. *)
let test_resource_too_large () =
  let compile n = Compile.compile Strategy.mixed_radix_ccz (Bench.by_total_qubits Cnu n) in
  let certify = Resource.certify ~trajectories:1 ~batch:8 ~domains:2 in
  let counted = certify (compile 28) in
  check_bool "cnu-28 peak counted" true (counted.Resource.peak_bytes > 500_000_000_000_000_000);
  check_bool "cnu-28 over a 1e8-byte budget" true
    (rule_ids
       (Resource.check_budget counted
          { Resource.limit_bytes = Some 100_000_000; limit_ms = None })
    = [ "RES01" ]);
  List.iter
    (fun (n, devices) ->
      let p = compile n in
      check_int (Printf.sprintf "cnu-%d devices" n) devices p.Physical.device_count;
      match certify p with
      | cert ->
        Alcotest.failf "cnu-%d certified with peak %d bytes" n cert.Resource.peak_bytes
      | exception Resource.Too_large -> ())
    [ (30, 29); (33, 33) ]

let test_resource_cache_blowup_res03 () =
  let circuit = Bench.by_total_qubits Cnu 5 in
  let compiled = Compile.compile Strategy.full_ququart circuit in
  let cert = Resource.certify compiled in
  (* With telemetry reset every counter reads zero, so the only possible
     diagnostic is the (telemetry-independent) RES03 residency warning. *)
  Telemetry.reset ();
  check_bool "generous ratio stays quiet" true
    (Resource.check_observed ~cache_blowup_ratio:1e9 cert = []);
  match Resource.check_observed ~cache_blowup_ratio:0.001 cert with
  | [ d ] ->
    check_bool "RES03 fired" true (d.Diagnostic.rule = "RES03");
    check_bool "RES03 is a warning" true (d.Diagnostic.severity = Diagnostic.Warning)
  | ds -> Alcotest.failf "expected exactly RES03, got %d diagnostics" (List.length ds)

let test_certify_compiled_program () =
  let circuit = Bench.by_total_qubits Qram 6 in
  let a = Compile.compile Strategy.mixed_radix_ccz circuit in
  let before = Physical.dump a in
  let cert = Resource.certify a in
  check_int "certificate covers the program" (List.length a.Physical.ops)
    cert.Resource.ops;
  check_int "certificate uses the default shape" 1
    cert.Resource.shape.Resource.trajectories;
  (* Certification is observational: the program (and its canonical dump)
     is the one the plain compile produced. *)
  Alcotest.(check string) "certification is dump-invisible" before (Physical.dump a)

let test_resource_dump_roundtrip_determinism () =
  let circuit = Bench.by_total_qubits Cuccaro 6 in
  let compiled = Compile.compile Strategy.full_ququart circuit in
  let d1 = Resource.dump (Resource.certify ~trajectories:7 ~batch:3 ~domains:2 compiled) in
  let d2 = Resource.dump (Resource.certify ~trajectories:7 ~batch:3 ~domains:2 compiled) in
  Alcotest.(check string) "certificates are bit-stable" d1 d2;
  check_bool "dump carries the v5 header" true
    (String.length d1 > 24 && String.sub d1 0 24 = "resource-certificate v5\n");
  (* Every kernel class appears in the dispatch mix, catalogue order. *)
  let cert = Resource.certify compiled in
  check_int "dispatch mix lists every class" (List.length Waltz_sim.Kernel.classes)
    (List.length cert.Resource.dispatch_mix);
  check_int "mix total matches op count" cert.Resource.ops
    (List.fold_left (fun acc (_, n) -> acc + n) 0 cert.Resource.dispatch_mix)

(* Compiled programs dispatch only the diagonal, monomial and single-wire
   kernels: every pulse that spans devices is a permutation with phases,
   and dense matrices act on one device. A dispatch elsewhere means a pulse
   changed shape under the kernel catalog's traffic claim. *)
let test_compiled_dispatch_classes () =
  let compiled_classes = [ "diagonal"; "monomial"; "single_wire" ] in
  List.iter
    (fun family ->
      List.iter
        (fun n ->
          let circuit = Bench.by_total_qubits family n in
          List.iter
            (fun strategy ->
              let cert = Resource.certify (Compile.compile strategy circuit) in
              List.iter
                (fun (cls, count) ->
                  if count > 0 && not (List.mem cls compiled_classes) then
                    Alcotest.failf
                      "%s-%d under %s dispatches %d %s kernel(s); the kernel catalog in \
                       doc/PERF.md says compiled programs use only diagonal, monomial \
                       and single_wire"
                      (Bench.family_name family) n strategy.Strategy.name count cls)
                cert.Resource.dispatch_mix)
            Strategy.all)
        [ 5; 7; 9 ])
    Bench.all_families

let suite =
  [ case "leakage lattice laws" test_leakage_lattice_laws;
    case "stabilizer agrees with exact unitaries" test_stabilizer_exact_agreement;
    case "identity runs" test_identity_runs;
    case "stabilizer beyond the equivalence bound" test_stabilizer_beyond_equivalence_bound;
    case "leakage agrees with state-vector replay" test_leakage_agreement_with_simulation;
    case "LEAK02 dead ENC/DEC pair" test_leak02_dead_enc_dec_pair;
    case "LEAK01 non-ww pulse sees encoded state" test_leak01_non_ww_pulse_sees_encoded_state;
    case "cost oracles" test_cost_oracles;
    case "liveness events" test_liveness_events;
    case "commutes is sound" test_commutes_sound;
    case "simplify_deep beats the peephole" test_simplify_deep_beats_peephole;
    case "simplify_deep on a benchmark" test_simplify_deep_on_benchmark;
    case "SARIF golden fixture" test_sarif_golden;
    case "SARIF validator rejects malformed input" test_sarif_validator_rejects;
    case "SARIF validator decodes unicode escapes" test_sarif_unicode_escapes;
    case "Verify.run report" test_verify_run_report;
    case "pass names roundtrip" test_pass_names_roundtrip;
    case "resource soundness grid" test_resource_soundness_grid;
    case "resource budget RES01" test_resource_budget_res01;
    case "resource figures past max_int are refused" test_resource_too_large;
    case "resource cache blowup RES03" test_resource_cache_blowup_res03;
    case "certify a compiled program" test_certify_compiled_program;
    case "resource certificate determinism" test_resource_dump_roundtrip_determinism;
    case "compiled programs dispatch three classes" test_compiled_dispatch_classes ]
