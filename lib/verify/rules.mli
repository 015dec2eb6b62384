(** The checker's rule catalog: every rule id with its default severity,
    a one-line title, and the paper invariant it encodes.

    Rule families: [WF] structural well-formedness, [CIR] logical-circuit
    checks, [OCC] occupancy dataflow, [TOP] topology legality, [SCHED]
    schedule safety, [CAL] calibration/strategy conformance, [EQ] bounded
    semantic equivalence, [STAB] stabilizer propagation, [LEAK] leakage
    reachability, [COST] EPS accounting, [LIVE] commutation-aware liveness.
    See doc/VERIFIER.md for the full descriptions.

    The resource certifier ([waltz_analysis], doc/ANALYSIS.md) registers
    its [RES] findings here, and the concurrency sanitizer its
    [RACE]/[LOCK]/[OWN] findings (doc/SANITIZER.md). *)

type info = {
  id : string;
  severity : Diagnostic.severity;
  title : string;
  grounding : string;  (** which paper section/invariant the rule encodes *)
}

val all : info list

val find : string -> info option

val pp_catalog : Format.formatter -> unit -> unit
