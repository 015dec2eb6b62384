(** Dense complex matrices over parallel unboxed float arrays.

    Row-major storage: entry (i, j) lives at index [i * cols + j]. Sized for
    the Hilbert spaces of this project (dimension ≤ a few hundred); no
    blocking or BLAS, just cache-friendly loops. *)

type t = { rows : int; cols : int; re : float array; im : float array }

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val init : int -> int -> (int -> int -> Cplx.t) -> t

val identity : int -> t

val zeros : int -> int -> t

val of_rows : Cplx.t list list -> t
(** Builds a matrix from a non-empty list of equal-length rows. *)

val of_real_rows : float list list -> t

val diag : Cplx.t array -> t

val permutation : int -> (int -> int) -> t
(** [permutation n f] is the unitary P with P|k⟩ = |f k⟩. [f] must be a
    bijection on [0, n); raises [Invalid_argument] otherwise. *)

val get : t -> int -> int -> Cplx.t

val set : t -> int -> int -> Cplx.t -> unit

val dims : t -> int * int

val copy : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : Cplx.t -> t -> t

val mul : t -> t -> t
(** Matrix product. *)

val mul_many : t list -> t
(** Product of a non-empty list, left to right: [mul_many [a; b; c]] is
    [a·b·c]. *)

val apply : t -> Vec.t -> Vec.t
(** Matrix–vector product. *)

val transpose : t -> t

val conj : t -> t

val adjoint : t -> t
(** Conjugate transpose. *)

val kron : t -> t -> t
(** Kronecker product; [kron a b] acts on the tensor space with [a]'s index
    as the most significant. *)

val kron_many : t list -> t

val trace : t -> Cplx.t

val one_norm : t -> float
(** Maximum absolute column sum. *)

val max_abs : t -> float
(** Largest entry modulus; NaN if any entry is NaN, so that [equal] and
    [is_unitary] reject a NaN matrix. *)

val max_abs_diff : t -> t -> float

val equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison with absolute tolerance (default [1e-9]). *)

val equal_up_to_phase : ?tol:float -> t -> t -> bool
(** True when [a = e^{iφ}·b] for some global phase φ. *)

val is_unitary : ?tol:float -> t -> bool

val diagonal_entries : t -> (float array * float array) option
(** The (re, im) diagonal of a square matrix whose off-diagonal entries are
    exactly zero; [None] otherwise. No tolerance — it selects an exact
    kernel class, so a near-diagonal matrix must not qualify. *)

val monomial_structure : t -> (int array * float array * float array) option
(** [Some (src, pre, pim)] when the square matrix has exactly one nonzero
    entry per row and per column — a permutation-with-phases (generalized
    X(+m), controlled-X, SWAP, …). Row [i]'s nonzero sits in column
    [src.(i)] with value [pre.(i) + i·pim.(i)], so applying the matrix is
    [out(i) = phase(i) · in(src(i))]. Exact zero tests: a near-monomial
    matrix with any 1e-300 residue does not qualify. *)

val process_fidelity : t -> t -> float
(** [process_fidelity u v] is |Tr(u†·v)|²/n² — the gate fidelity of Eq. 1
    between two same-dimension unitaries. *)

val expm : t -> t
(** Matrix exponential by scaling-and-squaring with a Taylor core. Accurate
    to ≈1e-13 for the well-conditioned anti-Hermitian arguments used in time
    evolution. *)

val pp : Format.formatter -> t -> unit
