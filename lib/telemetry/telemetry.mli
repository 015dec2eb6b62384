(** Zero-dependency tracing and metrics for the Waltz pipeline.

    Each datum has one store. Spans live in the {!Recorder} flight-recorder
    rings and are recorded while the recorder is armed; counters live in
    interned atomic cells and histograms in bounded per-domain sketch
    series ({!Sketch} — fixed memory however long the process runs), both
    accumulating while the metrics tier is on. With both off (the default)
    each instrumented call is a single branch on an [Atomic.t] with no
    allocation, so the hot paths pay nothing. Recording never touches RNG
    streams or reorders work, so instrumented runs are bit-identical to
    uninstrumented ones. See doc/OBSERVABILITY.md for the metric catalog
    and naming scheme. *)

val enable : unit -> unit
(** Turns on the metrics tier and arms the flight recorder (spans). *)

val disable : unit -> unit
(** Turns the metrics tier off and disarms the recorder — unless it was
    already armed when {!enable} ran (e.g. by [WALTZ_FLIGHT=1]), in which
    case it stays armed. Recorded data stays readable until {!reset}. *)

val metrics_enabled : unit -> bool

val enable_metrics : unit -> unit
(** Turns on the metrics tier alone: counters, gauges and histogram
    sketches accumulate; spans are recorded only if the recorder is armed.
    Together with an armed {!Recorder} this is the always-on plane — its
    hot-path cost is bounded by the {!Metrics.cell} and {!Metrics.series}
    handles plus ring stores. *)

val active : unit -> bool
(** True when any plane wants instrumented paths to run: the metrics tier
    or an armed flight recorder. This is the gate hot paths check before
    doing any instrumentation work. *)

val reset : unit -> unit
(** Clears the recorder rings ({!Recorder.reset}), counters, gauges and
    histograms; the enable flags are left as they are. *)

val now_us : unit -> float
(** Monotonic microseconds, arbitrary origin (an alias of
    {!Clock.now_us}); only differences and orderings are meaningful. *)

module Span : sig
  type t = Recorder.span = {
    name : string;
    track : int;  (** the recording domain's id; 0 is the main domain *)
    start_us : float;
    dur_us : float;
    depth : int;  (** open ancestors on this domain's stack at start *)
    parent : string option;  (** innermost enclosing span's name, if recorded *)
    args : (string * string) list;
  }

  val with_ : ?args:(string * string) list -> name:string -> (unit -> 'a) -> 'a
  (** [with_ ~name f] runs [f] inside a span. Recorder disarmed: exactly
      [f ()]. Armed: two clock reads and a Begin/End ring event pair on the
      calling domain. Exceptions propagate; the span is recorded either
      way. *)

  val all : unit -> t list
  (** Completed spans still in the rings ({!Recorder.spans}), sorted by
      (track, start) with enclosing spans first. *)

  type aggregate = { agg_name : string; count : int; total_us : float; max_us : float }

  val aggregate : unit -> aggregate list
  (** Spans grouped by name, sorted by total time (descending, then name). *)

  exception Overwritten of int
  (** Raised by {!aggregate_during} with the number of events written
      inside its window that wraparound overwrote before they were read. *)

  val aggregate_during : (unit -> 'a) -> 'a * aggregate list
  (** Runs the thunk and aggregates the spans, on any domain, that began
      and ended within it. Raises {!Overwritten} if a ring overwrote events
      written inside the window, since the totals would then be short;
      wraps that only push out older events are harmless. *)
end

module Metrics : sig
  val incr : ?by:int -> string -> unit
  (** Adds to the counter {!cell} of this name, interned on every call (a
      hash lookup under the state mutex — fine once per pipeline phase, too
      slow inside a microsecond trajectory), and writes a counter event to
      the flight recorder when it is armed. *)

  val observe : string -> float -> unit
  (** Adds a sample to the histogram {!series} of this name, interned the
      same way. *)

  (** {2 Preallocated hot-path handles}

      Instrumentation that fires per gate application or per trajectory
      block interns a handle once at setup time (the executor stores them
      in its compiled plan) and pays one atomic fetch-and-add ([cell]) or
      one lock-free per-domain sketch insert ([series]) per event. Handle
      updates do not emit flight-recorder events. [reset] clears their
      contents; the handles themselves stay valid. *)

  type cell

  val cell : string -> cell
  (** Interns (or finds) the counter cell with this name. *)

  val cell_incr : ?by:int -> cell -> unit

  val cell_add : cell -> int -> unit
  (** [cell_incr] without the enablement check — for a call site that has
      already branched on {!metrics_enabled} once around a batch of
      updates. *)

  type series

  val series : string -> series
  (** Interns (or finds) the histogram series with this name. *)

  val series_observe : series -> float -> unit

  val set_gauge : string -> float -> unit
  (** Last-write-wins instantaneous value (e.g. [pool.queue_depth]). *)

  val counter : string -> int
  (** 0 when the counter never fired. *)

  val counters : unit -> (string * int) list
  (** Nonzero counters, sorted by name. *)

  val gauge : string -> float option
  val gauges : unit -> (string * float) list

  type histogram = {
    count : int;
    sum : float;
    min : float;
    max : float;
    p50 : float;  (** sketch quantiles, rank-accurate to one log bucket *)
    p90 : float;
    p99 : float;
  }

  val histogram : string -> histogram option
  (** [None] when the series has no observation. *)

  val histograms : unit -> (string * histogram) list

  val hit_rate : hit:string -> miss:string -> float
  (** [counter hit / (counter hit + counter miss)]; 0 when both are zero. *)
end

module Report : sig
  val to_string : unit -> string
  (** Human-readable report: spans aggregated by name, counters, gauges,
      histogram summaries (with sketch quantiles) and the number of ring
      events dropped by wraparound. This is what the CLI's [--stats] flag
      prints. *)
end

module Trace : sig
  val to_json : unit -> string
  (** {!Recorder.trace_json}: Chrome [trace_event] JSON of the rings
      (complete "X" events plus thread-name metadata; one track per
      domain), loadable in chrome://tracing and Perfetto. *)

  val write : string -> unit
  (** [write path] saves {!to_json} to [path]. *)

  val validate : string -> (int * int, string) result
  (** Checks a trace file's contents: valid JSON, a [traceEvents] array,
      every "X" event carrying name/ts/dur/pid/tid with nonnegative times,
      per-track monotone [ts] and no partially-overlapping spans (siblings
      disjoint, children contained). Returns (span events, tracks). *)
end
