(** Entry point of the static-analysis layer: runs the fixpoint analyses and
    aggregates their findings into a {!Waltz_verify.Diagnostic.report}.

    "Verify" ([Waltz_verify.Verify]) checks local invariants op by op;
    "analyze" computes fixpoint facts over whole programs — stabilizer
    tableaux, reachable ququart levels, cost intervals, movable frontiers —
    and derives diagnostics from them. Both emit rule ids registered in
    [Waltz_verify.Rules]. *)

open Waltz_circuit
open Waltz_core
module Diagnostic = Waltz_verify.Diagnostic

type pass = Stabilizer_pass | Leakage_pass | Cost_pass | Liveness_pass | Resource_pass

val all_passes : pass list

val pass_name : pass -> string

val pass_of_name : string -> pass option

val run :
  ?passes:pass list -> Circuit.t option -> Physical.t -> Diagnostic.report
(** Runs the selected analyses (default: all). The circuit-level analyses
    (stabilizer, liveness) emit STAB00/LIVE00 skip notes when no source
    circuit is supplied. Each pass runs inside an [analyze/<name>] telemetry
    span and counts fired diagnostics in [analyze.<name>.fired]. *)

val pp_report : Format.formatter -> Diagnostic.report -> unit
