(** Mixed-dimension state vectors and in-place gate application.

    A register is a list of wires with individual dimensions (2 for qubit
    devices, 4 for ququarts) — this is what lets one simulator serve the
    qubit-only, mixed-radix (everything modeled at 4 levels, as in the
    paper) and full-ququart environments. Wire 0 is most significant. *)

open Waltz_linalg

type t

val create : dims:int array -> t
(** The all-zeros basis state |0…0⟩. *)

val of_vec : dims:int array -> Vec.t -> t
(** Wraps a state vector (copied); its dimension must match the product of
    [dims]. *)

val random : Rng.t -> dims:int array -> t
(** Haar-random pure state. *)

val random_in_levels : Rng.t -> dims:int array -> levels:int array -> t
(** Haar-random state supported on the first [levels.(w)] levels of each
    wire — e.g. a random *qubit* state on 4-level devices
    ([levels] all 2). Used to prepare the random logical inputs of Sec. 6.4
    on ququart hardware. *)

val random_supported : Rng.t -> dims:int array -> allowed:int list array -> t
(** Haar-random state supported on an explicit list of allowed levels per
    wire (e.g. [{0; 2}] for a lone qubit stored in slot 0 of a ququart). *)

val iter_supported : dims:int array -> allowed:bool array array -> (int -> unit) -> unit
(** [iter_supported ~dims ~allowed f] calls [f idx], in ascending order,
    for every amplitude index whose wire digits are all allowed
    ([allowed.(w).(l)] true when level [l] of wire [w] is in the support).
    A nested walk over each wire's allowed levels: no per-index division
    and no table sized by the amplitude count. *)

val fill_random_supported : t -> Rng.t -> allowed:bool array array -> unit
(** In-place variant of {!random_supported} taking precomputed per-wire
    level tables ([allowed.(w).(l)] true when level [l] of wire [w] is in
    the support). Overwrites every amplitude, so a buffer reused across
    trajectories carries nothing over; the RNG draw order is identical to
    {!random_supported}. *)

val copy : t -> t

val dims : t -> int array

val dim_total : t -> int

val amplitudes : t -> Vec.t
(** The underlying vector, not copied: writes to it are writes to the
    state (the executor sweeps compiled kernels over it in place). *)

val apply : t -> targets:int list -> Mat.t -> unit
(** In-place application of a unitary (or Kraus operator) on the listed
    wires; the matrix dimension must equal the product of the target wire
    dimensions, first target most significant. Does not renormalize.

    The reference gather/multiply/scatter path, with no structural
    specialization: the compiled {!Kernel} classes are checked against it.
    Repeated applications of one matrix belong in {!Kernel.compile} and
    {!Kernel.apply_block}. *)

val apply_planes :
  dims:int array -> float array -> float array -> cap:int -> lane:int ->
  targets:int list -> Mat.t -> unit
(** {!apply} on the register held at [idx * cap + lane] of the [re]/[im]
    planes (one {!State_block} lane), through the same loop and so with the
    same bits. Raises [Invalid_argument] on a [lane] outside [0, cap),
    planes shorter than [n * cap] and {!apply}'s target errors. *)

val populations : t -> wire:int -> float array
(** Marginal probability of each level of one wire. *)

val damp : t -> Rng.t -> wire:int -> lambdas:float array -> unit
(** One stochastic amplitude-damping trajectory step on a wire: samples a
    Kraus operator from {K₀, K₁ … K_{d-1}} with K_m = √λ_m·|0⟩⟨m| and K₀
    the no-jump operator, applies it and renormalizes. *)

val damp_scales : float array -> float array
(** The no-jump Kraus diagonal [√(1 − λ_m)] per level — precompute once per
    distinct idle window and pass to {!damp_with}. *)

val damp_with :
  t -> Rng.t -> wire:int -> lambdas:float array -> scales:float array -> unit
(** {!damp} with the no-jump scales precomputed ([scales = damp_scales
    lambdas]); draws the same jump choice and produces the same bits, with
    no per-call allocation (scratch comes from the per-domain arena). *)

val overlap2 : t -> t -> float
(** |⟨a|b⟩|² — fidelity between pure states. *)

val norm : t -> float

val normalize : t -> unit

val basis_probability : t -> int -> float

val sample : Waltz_linalg.Rng.t -> t -> int
(** One computational-basis measurement outcome (flat index), drawn from the
    Born distribution. The state is not collapsed. *)

val sample_counts : Waltz_linalg.Rng.t -> t -> shots:int -> (int * int) list
(** [shots] measurement outcomes, as (basis index, count) pairs sorted by
    index. *)

val pp : Format.formatter -> t -> unit
