(** Dense complex vectors stored as parallel unboxed float arrays.

    This is the state-vector backbone of the simulator: the representation is
    exposed (fields [re]/[im]) so that hot loops in [waltz_sim] can index the
    raw arrays directly without boxing a [Complex.t] per amplitude. Treat the
    arrays as owned by the vector; use [copy] before mutating a shared one. *)

type t = { n : int; re : float array; im : float array }

val create : int -> t
(** [create n] is the zero vector of dimension [n]. *)

val basis : int -> int -> t
(** [basis n k] is the computational basis vector |k⟩ in dimension [n]. *)

val of_complex_array : Cplx.t array -> t

val copy : t -> t

val get : t -> int -> Cplx.t

val set : t -> int -> Cplx.t -> unit

val dim : t -> int

val dot : t -> t -> Cplx.t
(** [dot a b] is ⟨a|b⟩ (conjugate-linear in the first argument). *)

val norm2 : t -> float
(** Squared 2-norm. *)

val norm : t -> float

val normalize_in_place : t -> unit
(** Divides by the norm. Raises [Invalid_argument] on the zero vector. *)

val overlap2 : t -> t -> float
(** [overlap2 a b] is |⟨a|b⟩|², the state fidelity between pure states. *)

val gaussian : (unit -> float) -> int -> t
(** [gaussian rand_gauss n] draws each real and imaginary component from the
    supplied standard-normal sampler and normalizes: a Haar-random pure
    state of dimension [n]. *)
