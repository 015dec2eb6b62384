(** Per-domain scratch arenas for hot-loop buffers.

    The trajectory engine applies thousands of small kernels per second;
    allocating gather buffers, odometer counters and damping weights per
    call would make the hot loop allocation-bound. A [Scratch.t] is a small
    set of growable buffers owned by one domain (via [Domain.DLS]), fetched
    once per kernel application and reused across calls, trajectories and
    pool jobs.

    Discipline: a buffer is only valid between [floats]/[ints] and the end
    of the current call chain — callees must not hold a slot across a call
    that may use the same slot. Slot assignments in this codebase:

    - float slots 0/1: [State.apply] gather buffers (re/im), also behind
      [State.apply_planes] and [State_block.apply_lane]
    - float slot 2: free
    - float slot 3: [State_block.damp_with] one lane's branch weights
      (exact length, for [Rng.weighted_choice])
    - float slots 4/5: [Kernel.apply_block] gather buffers (re/im,
      lane-major)
    - float slot 6: [State_block.damp_with] per-lane populations, then
      branch weights ([State_block.damp_weights]), then
      [State_block.damp_apply]'s per-lane norms
    - int slot 0: spectator-wire odometer counters
    - int slot 1: [State.apply] subspace offsets
    - int slot 2: spectator-wire list for base enumeration
    - int slot 3: free
    - int slot 4: [State_block.damp_with] per-lane jump choices

    Buffers hold stale data from previous uses; every user must write
    before reading.

    The single-owner contract is checked dynamically: every accessor
    touches a [Waltz_sanitizer.Sanitize.Arena] ownership witness, so with
    the sanitizer enabled an arena reached from a foreign domain (e.g. a
    [t] smuggled across a pool job boundary) is an OWN01 finding. *)

type t

val get : unit -> t
(** The calling domain's arena (created on first use, one per domain). *)

val floats : t -> int -> int -> float array
(** [floats t slot n] is a float buffer of length [>= n] (grown
    geometrically on demand). [slot] must be in [0, 8). *)

val floats_exact : t -> int -> int -> float array
(** [floats_exact t slot n] is a buffer of length exactly [n] — for
    consumers that scan the whole array (e.g. [Rng.weighted_choice]).
    Reallocated only when the requested length changes. Shares the slot
    space with {!floats}; do not mix the two on one slot. *)

val ints : t -> int -> int -> int array
(** Like {!floats} but for int buffers, with its own slot space. *)
