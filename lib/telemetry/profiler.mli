(** Sampling profiler: a ticker domain samples every recording domain's
    open-span stack ({!Recorder.open_stacks}, so spans show up only while
    the recorder is armed) at a configurable rate and folds the samples
    into flamegraph-compatible "frame;frame;frame count" lines (root
    first, leading frame [main] or [domain-<id>]).

    Stacks are read without synchronizing with the profiled domains — the
    standard sampling-profiler contract: an individual sample may be
    momentarily stale, which shows up as noise, not corruption. *)

type t

val start : ?hz:int -> unit -> t
(** Spawns the ticker. The default rate is [WALTZ_PROFILE_HZ] (or 97 Hz);
    nonpositive [hz] falls back to that default. *)

val stop : t -> (string * int) list
(** Stops and joins the ticker; returns the folded stacks sorted by key. *)

val folded_key : track:int -> stack:string list -> string
(** Pure: folds one sampled stack (innermost-first, as
    {!Recorder.open_stacks} returns) into its semicolon-joined
    root-first key. *)

val to_lines : (string * int) list -> string list
(** ["key count"] lines, ready for [flamegraph.pl] / speedscope. *)

val write : string -> (string * int) list -> unit
(** Writes {!to_lines} to a file, one line each. *)
