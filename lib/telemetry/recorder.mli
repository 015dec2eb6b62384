(** Flight recorder: fixed-size per-domain ring buffers of recent span
    begin/end and counter events — the one span store. Span aggregates,
    the Chrome trace export, [--stats] and the profiler all read the rings,
    and post-mortem dumps write them as a Chrome trace plus a text log.

    Disarmed (the default) every recording call is a single atomic load and
    runs are bit-identical to unrecorded ones. Armed, each domain writes
    into its own preallocated ring (single-writer, lock-free, drop-oldest),
    so steady-state recording allocates nothing. Arm at startup with the
    [WALTZ_FLIGHT=1] environment variable or {!arm} ([Telemetry.enable]
    arms it too). Dumps land in [WALTZ_FLIGHT_DIR] (default: the system
    temp directory). *)

val armed : unit -> bool
val arm : unit -> unit
val disarm : unit -> unit

val begin_at : string -> (string * string) list -> float -> unit
(** [begin_at name args t_us] opens a span on the calling domain at the
    {!Clock.now_us} timestamp [t_us]: pushes it on the domain's open-span
    stack and writes a Begin event carrying its depth and args. Records
    whether or not the recorder is armed — callers check {!armed} once and
    then pair it with exactly one {!end_at} ([Telemetry.Span.with_] does). *)

val end_at : string -> float -> unit
(** Closes the innermost open span on the calling domain. *)

val record_count : string -> int -> unit
(** Counter increment event (name, by); no-op when disarmed. *)

val default_capacity : int
(** Events retained per domain unless {!set_capacity} says otherwise. *)

val capacity : unit -> int

val reset : unit -> unit
(** Lazily clears every domain's ring (writers start afresh on next use,
    reusing their arrays) and drops the rings of domains that have not
    written since from the registry. Spans open across a reset stay on
    their domain's stack but are not recorded. *)

val set_capacity : int -> unit
(** Events retained per domain (minimum 16); implies {!reset}. *)

type span = {
  name : string;
  track : int;  (** the recording domain's id; 0 is the main domain *)
  start_us : float;
  dur_us : float;
  depth : int;  (** open ancestors on this domain's stack at start *)
  parent : string option;  (** enclosing span's name, if its Begin survives *)
  args : (string * string) list;
}

type kind = Begin | End | Count

type event = {
  kind : kind;
  name : string;
  t_us : float;
  value : int;  (** Count: the increment; Begin/End: the span's depth *)
  args : (string * string) list;  (** Begin: the span's args; [] otherwise *)
}

val events : unit -> (int * event list) list
(** Current ring contents grouped by domain track, oldest event first,
    tracks ascending. A racy snapshot: concurrent writers may tear the
    newest slot. *)

val dropped : unit -> int
(** Events overwritten by wraparound since the last {!reset}, summed over
    domains. *)

type mark

val mark : unit -> mark
(** Each ring's written total now, for {!overwritten_since}. *)

val overwritten_since : mark -> int
(** Events written since the mark that wraparound has already overwritten,
    summed over domains; 0 means every event written since the mark is
    still in the rings. Wraps that only pushed out older events do not
    count, and a ring reset since the mark counts from the reset. *)

val open_stacks : unit -> (int * string list) list
(** Each recording domain's open-span stack, innermost first, keyed by
    track and sorted by track — what the profiler samples. Read without
    synchronizing with the owning domains: a stack may be momentarily
    stale. *)

val spans : unit -> span list
(** Completed spans reconstructed by pairing each ring's Begin/End events,
    sorted by (track, start) with the enclosing span first on ties.
    Wraparound drops spans whose Begin was overwritten. *)

val track_name : int -> string
(** ["main"] for track 0, ["domain-<id>"] otherwise. *)

val trace_json : unit -> string
(** The ring contents as Chrome [trace_event] JSON: complete "X" events
    (with args) plus thread-name metadata, one track per domain, each track
    monotone and well-nested in file order. Spans still open are closed at
    write time and suffixed " (unclosed)". Passes
    [Telemetry.Trace.validate]. *)

val note_error : reason:string -> unit
(** Dump hook for Error-severity diagnostics: writes the ring contents as
    a [trace.json] file ({!trace_json}) and a [txt] event log. No-op when
    disarmed; rate-limited to 8 dumps per process. *)

val with_crash_dump : label:string -> (unit -> 'a) -> 'a
(** Runs the thunk; if it raises while the recorder is armed, dumps the
    rings (same rate limit as {!note_error}) and re-raises with the
    original backtrace. Disarmed: exactly the thunk. *)

val last_dump : unit -> (string * string) option
(** Paths written by the most recent dump, if any. *)

val set_dump_dir : string -> unit
(** Overrides the dump directory that [WALTZ_FLIGHT_DIR] set at startup;
    tests use it to keep their dumps apart. *)
