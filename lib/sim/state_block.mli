(** Structure-of-arrays blocks of trajectory states for lockstep batching.

    The trajectory engine's cost is dominated by per-amplitude index
    arithmetic, not float work (see doc/PERF.md). A [State_block.t] stores
    up to [cap] states of one register side by side in flat unboxed float
    planes — amplitude [idx] of lane [k] at [idx * cap + k] — so every
    batched kernel ({!Kernel.apply_block}) computes each index pattern once
    and sweeps all lanes in a dense, vectorizable inner loop.

    The lockstep contract: per lane, every operation here performs the same
    floating-point operations in the same order whatever the capacity and
    live count — the same as the {!State} counterpart where there is one —
    and every random draw comes from that lane's own RNG. A block run is
    therefore bit-identical to running its lanes as one-lane blocks — the
    determinism suite enforces this at every batch width and [--domains]
    setting.

    Divergent branches (a damping jump on some lanes, a sampled Pauli error
    on others) are handled with a per-lane mask: the common all-no-jump
    case stays a single shared sweep, and divergent windows fall back to a
    masked combined sweep ({!damp_with}) or a single-lane application
    ({!apply_lane}) without breaking the surrounding lockstep.

    Blocks are mutable workspaces; like {!State}, a block must not be
    shared across domains (the per-domain scratch arena it uses is
    sanitizer-owned). *)

open Waltz_linalg

type t

val create : dims:int array -> cap:int -> t
(** A block of [cap] all-zero lanes over a register with the given wire
    dimensions; [live] starts at [cap]. *)

val of_planes : dims:int array -> cap:int -> float array -> float array -> t
(** [of_planes ~dims ~cap re im] lays a block over existing re/im planes
    that hold at least [n * cap] floats for the register's [n] amplitudes
    (else [Invalid_argument]); [live] starts at [cap]. The block uses
    positions [0, n * cap) and never touches the rest, so one pair of
    planes can serve registers of different shapes in turn. Its lanes hold
    whatever the planes held: refill ({!fill_random_supported},
    {!write_lane}, {!assign}) before reading. *)

val dims : t -> int array
val dim_total : t -> int

val capacity : t -> int
(** Lane capacity — the layout stride, fixed at creation. *)

val live : t -> int
(** Lanes currently in use; operations touch lanes [0, live). *)

val set_live : t -> int -> unit
(** Shrink/grow the live lane count (within [1, capacity]) — the trailing
    partial block of a trajectory run reuses full-capacity planes. *)

val assign : dst:t -> src:t -> unit
(** Copies all planes and the live count ([dst] must share [src]'s shape
    and capacity). *)

val read_lane : t -> int -> Vec.t
(** Lane [k] as a freshly allocated state vector (tests and bench only —
    the hot path never de-interleaves). *)

val write_lane : t -> int -> Vec.t -> unit
(** Overwrites lane [k] with a state vector of matching dimension. *)

val fill_random_supported : t -> Rng.t array -> allowed:bool array array -> unit
(** Haar-random refill of every live lane on the allowed support, lane [k]
    drawing from [rngs.(k)] in exactly the
    {!State.fill_random_supported} order. *)

val apply_kernel : t -> Kernel.t -> unit
(** Lockstep application of a compiled kernel to all live lanes
    ({!Kernel.apply_block}). Raises [Invalid_argument] when the kernel was
    compiled for a register of another amplitude count
    ({!Kernel.dim_total}), however long the planes are. *)

val apply_lane : t -> int -> targets:int list -> Mat.t -> unit
(** Application of a unitary to one live lane, {!State.apply}'s own loop
    ({!State.apply_planes}), so bit-exactly a state vector's result. For
    divergent per-lane branches (error injection); never lockstep. *)

val populations_into : float array -> t -> wire:int -> unit
(** Marginal level populations of one wire for every live lane, into a
    buffer of length [>= d * capacity] with layout [level * capacity + k]. *)

val damp_with :
  t -> Rng.t array -> wire:int -> lambdas:float array -> scales:float array -> int
(** One stochastic amplitude-damping step on a wire for every live lane,
    lane [k] drawing its jump choice from [rngs.(k)] — same weights, same
    draw, same bits as {!State.damp_with} per lane. Returns the number of
    lanes that took a jump branch (0 means the fast lockstep scale sweep
    ran; > 0 means the masked divergent sweep ran). *)

val overlap2_into : float array -> t -> t -> unit
(** Per-lane fidelity |⟨a_k|b_k⟩|² into a buffer of length [>= live]; both
    blocks must share shape, capacity and live count. *)

val leakage_into : float array -> t -> allowed:bool array array -> unit
(** Per-lane leakage, [1 − Σ |amp|²] over the supported indices
    ({!State.iter_supported} on [allowed]), into a buffer of length
    [>= live]. Each lane sums in ascending index order at every width. *)

val lane_norm2 : t -> int -> float
(** Norm² of one lane (ascending-index accumulation, as {!Vec.norm}²). *)

val normalize_lane : t -> int -> unit
(** Normalizes one lane in place; raises [Invalid_argument] on a zero
    lane. *)
