(** The Waltz static checker: an LLVM-style verifier for compiled programs.

    [run] statically analyses a [Physical.t] (and, when available, the
    logical [Circuit.t] it was compiled from) and returns a structured
    {!Diagnostic.report}. Ten passes, one per rule family:

    - {b structural} ([WF]/[CIR]): well-formedness of both IRs;
    - {b occupancy} ([OCC], [CAL04]): abstract interpretation of slot
      occupancy from [initial_map] to [final_map];
    - {b topology} ([TOP]): multi-device ops only on coupled devices;
    - {b schedule} ([SCHED]): ASAP consistency, device exclusivity,
      critical-path total;
    - {b calibration} ([CAL]): durations/fidelities match Table 1/2 entries
      legal for the strategy;
    - {b equivalence} ([EQ]): sparse basis replay against the circuit;
    - {b stabilizer} ([STAB]): Clifford-tableau proofs over the circuit;
    - {b leakage} ([LEAK]): reachable ququart levels per device;
    - {b cost} ([COST]): the per-op EPS fold against the EPS estimators;
    - {b liveness} ([LIVE]): commutation-aware dead and cancellable gates. *)

open Waltz_circuit
open Waltz_arch
open Waltz_core

type pass =
  | Structural
  | Occupancy
  | Topology_pass
  | Schedule
  | Calibration_pass
  | Equivalence_pass
  | Stabilizer_pass
  | Leakage_pass
  | Cost_pass
  | Liveness_pass

val all_passes : pass list

val pass_name : pass -> string

val pass_of_name : string -> pass option

val run :
  ?topology:Topology.t ->
  ?passes:pass list ->
  ?equiv_max_qubits:int ->
  Circuit.t option ->
  Physical.t ->
  Diagnostic.report
(** [run circuit compiled] checks [compiled] with the selected passes
    (default: all) and returns a report. When [~topology] is omitted, a
    full mesh over [compiled.device_count] devices is assumed (adjacency
    trivially satisfied). If structural errors make later passes unsafe
    ({!Structural.fatal}), only the structural findings are reported. Pass
    [None] for the circuit to skip the circuit-side checks: equivalence,
    stabilizer and liveness leave EQ00/STAB00/LIVE00 notes. Each pass runs
    inside a [verify/<name>] telemetry span and counts fired diagnostics in
    [verify.<name>.fired]. *)
