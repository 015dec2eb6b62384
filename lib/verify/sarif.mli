(** SARIF 2.1.0 output for checker reports, plus a self-contained validator.

    The writer emits one run (or, for {!to_sarif_runs}, one per report)
    whose tool driver is [waltz_verify], with the rule catalog of every
    checker family (WF/CIR/OCC/TOP/SCHED/CAL/EQ/STAB/LEAK/COST/LIVE) plus
    RES inlined and one result per diagnostic (severity mapped to
    error/warning/note, op anchors as logical locations ["op[i]"], fixes as
    a result property). Output is deterministic: fixed key order, no
    timestamps.

    The validator parses with [Waltz_telemetry.Json] (the parser behind the
    trace validator too) and runs the schema checks CI relies on (version,
    driver name, unique rule ids, results referencing declared rules with
    well-formed levels and messages). *)

val to_sarif :
  ?families:string list -> ?driver:string * string -> Diagnostic.report -> string
(** [to_sarif report] emits the checker run described above. Other tools
    reporting through the shared {!Rules} catalog (e.g. the concurrency
    sanitizer's RACE/LOCK/OWN families) pass their own [?families] prefix
    list and [?driver] (name, informationUri) pair. *)

val to_sarif_runs : (string * Diagnostic.report) list -> string
(** [to_sarif_runs [(id, report); ...]] is one document holding one
    checker run per report, in list order, each named by its [id] in the
    run's [automationDetails] (e.g. one run per strategy). A one-element
    list differs from {!to_sarif} only by that name. *)

val to_json : Diagnostic.report -> string
(** Plain machine-readable JSON (not SARIF): passes, op count, diagnostics. *)

val validate : string -> (int, string) result
(** Parses a SARIF document and checks the envelope; returns the number of
    results, or a message locating the first violation. When the driver
    declares a rule catalog, every result's ruleId must appear in it; when
    it declares none, ruleIds are checked against the registered
    {!Rules} catalog instead — unknown ids are rejected rather
    than silently accepted. *)
