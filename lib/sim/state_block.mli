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
    masked combined sweep ({!damp_apply}) or a single-lane application
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

val dim_total : t -> int

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
    {!State.random_supported} order. *)

val apply_kernel : t -> Kernel.t -> unit
(** Lockstep application of a compiled kernel to all live lanes
    ({!Kernel.apply_block}). Raises [Invalid_argument] when the kernel was
    compiled for a register of another amplitude count
    ({!Kernel.dim_total}), however long the planes are. *)

val apply_lane : t -> int -> targets:int list -> Mat.t -> unit
(** Application of a unitary to one live lane, {!State.apply}'s own loop
    ({!State.apply_planes}), so bit-exactly a state vector's result. For
    divergent per-lane branches (error injection); never lockstep. *)

val damp_scales : float array -> float array
(** The no-jump Kraus diagonal [√(1 − λ_m)] per level of a damping
    window's [λ]s: precompute once per window and pass to {!damp_apply} and
    {!damp_with}. *)

val damp_weights : float array -> t -> wire:int -> lambdas:float array -> unit
(** [damp_weights w t ~wire ~lambdas] writes each live lane's amplitude-
    damping branch weights into [w] (length [>= d * cap] for the wire's
    [d] levels) at [branch * cap + lane]: branch 0, no jump, weighs
    Σ_l (1 − λ_l)·pop_l, and branch [m >= 1], a jump from level [m] to
    [|0⟩], weighs λ_m·pop_m, where pop_l is the lane's population of level
    [l] of the wire. A normalized lane's weights sum to 1. *)

val damp_apply : t -> int array -> wire:int -> scales:float array -> int
(** [damp_apply t choices ~wire ~scales] applies lane [k]'s branch
    [choices.(k)] (in [0, d)) of the damping step: no jump scales level [l]
    by [scales.(l)], a jump from level [m] moves that level to [|0⟩] and
    zeroes the rest. Every live lane is then renormalized, so a branch of
    weight 0 raises [Invalid_argument]. Returns the number of lanes that
    jumped: 0 means the lockstep scale sweep ran, more the masked sweep. *)

val damp_with :
  t -> Rng.t array -> wire:int -> lambdas:float array -> scales:float array -> int
(** One stochastic amplitude-damping step on a wire for every live lane:
    {!damp_weights}, one [Rng.weighted_choice] per lane over its weights
    from [rngs.(k)], then {!damp_apply} ([scales = damp_scales lambdas]).
    Its buffers are per-domain scratch, so a call allocates no arrays.
    Returns the jump count. *)

val overlap2_into : float array -> t -> t -> unit
(** Per-lane fidelity |⟨a_k|b_k⟩|² into a buffer of length [>= live]; both
    blocks must share shape, capacity and live count. *)

val leakage_into : float array -> t -> allowed:bool array array -> unit
(** Per-lane leakage, [1 − Σ |amp|²] over the supported indices
    ({!State.iter_supported} on [allowed]), into a buffer of length
    [>= live]. Each lane sums in ascending index order at every width. *)
