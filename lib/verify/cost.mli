(** EPS accounting over the compiled IR (the COST family).

    One forward fold over the ops accumulates the log of the gate-success
    product, the serialized pulse time and the error budget. They must
    reproduce the {!Waltz_core.Eps} estimators exactly (COST01 errors on
    disagreement). COST03 summarizes them against the critical path read
    from {!Waltz_core.Physical.total_duration}; the schedule itself is
    checked by SCHED. *)

val check : Waltz_core.Physical.t -> Diagnostic.t list
