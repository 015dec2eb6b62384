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

val random_supported : Rng.t -> dims:int array -> allowed:int list array -> t
(** Haar-random state supported on an explicit list of allowed levels per
    wire (e.g. [{0; 2}] for a lone qubit stored in slot 0 of a ququart):
    the random logical inputs of Sec. 6.4 on ququart hardware. The RNG
    draws the real then the imaginary part of each supported amplitude,
    in ascending index order. *)

val iter_supported : dims:int array -> allowed:bool array array -> (int -> unit) -> unit
(** [iter_supported ~dims ~allowed f] calls [f idx], in ascending order,
    for every amplitude index whose wire digits are all allowed
    ([allowed.(w).(l)] true when level [l] of wire [w] is in the support).
    A nested walk over each wire's allowed levels: no per-index division
    and no table sized by the amplitude count. *)

val copy : t -> t

val dims : t -> int array

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

val basis_probability : t -> int -> float
