(** OpenMetrics / Prometheus text exposition: rendering from telemetry
    snapshots and a self-contained validator (the [Trace.validate] pattern)
    used by [waltz_cli check] and `make metrics-smoke`. *)

type summary = {
  s_name : string;  (** raw dotted metric name, e.g. "executor.block_us" *)
  s_count : int;
  s_sum : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_max : float;
}

val metric_name : string -> string
(** Prometheus-safe name: "waltz_" prefix, dots and other invalid
    characters replaced by underscores. *)

val render :
  counters:(string * int) list ->
  gauges:(string * float) list ->
  summaries:summary list ->
  string
(** Exposition text: one [# TYPE]/[# HELP] pair per family, counters with
    the [_total] suffix, gauges bare, histograms as summaries with
    quantile labels 0.5/0.9/0.99/1 plus [_sum]/[_count]; terminated by
    [# EOF]. *)

val validate : string -> (int * int, string) result
(** Checks an exposition: every family declared exactly once with a known
    type, every sample well-formed and matching its family's type and
    allowed suffix, quantile labels within [0,1], nonnegative counts, and
    a final [# EOF] with nothing after it. Returns (samples, families). *)
