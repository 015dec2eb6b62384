(** Bench regression tracking: compare a current BENCH_micro.json-shaped
    record against a committed baseline. Backs [waltz_cli report
    --baseline] and [make regress-check].

    Checked, for metrics present in both records: every [ns_per_run] entry
    (may rise at most [ns_pct] percent), the lift-gate and
    pool-utilization rates (may drop at most [hit_rate_drop] absolute),
    [batch.mask_divergence_rate] (may rise at most [divergence_rise]
    absolute) and [resource.certify_ns_per_op] (the admission controller's
    per-op certification cost, gated like a [ns_per_run] entry). Metrics
    present on only one side are ignored, so adding or removing benchmarks
    never trips the gate. *)

type thresholds = {
  ns_pct : float;
  hit_rate_drop : float;
  divergence_rise : float;
}

val default_thresholds : thresholds
(** 25 % ns/run, 0.10 hit-rate drop, 0.05 divergence rise — loose on
    purpose: the gate catches "2× slower", not micro-bench noise. *)

type finding = {
  metric : string;
  baseline_v : float;
  current_v : float;
  detail : string;
}

val pp_finding : finding -> string

val compare_json :
  ?thresholds:thresholds -> baseline:Json.t -> current:Json.t -> unit -> finding list

val compare_strings :
  ?thresholds:thresholds ->
  baseline:string ->
  current:string ->
  unit ->
  (finding list, string) result

val compare_files :
  ?thresholds:thresholds ->
  baseline:string ->
  current:string ->
  unit ->
  (finding list, string) result
(** Arguments are file paths; [Error] on unreadable or unparsable input. *)
