(** Logical gates of the compiler's input IR.

    Operand order conventions match [Waltz_qudit.Gates]: controls precede
    targets ([Ccx c0 c1 t], [Cswap c t0 t1], [Cx c t]). *)

open Waltz_linalg

type kind =
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | Rx of float
  | Ry of float
  | Rz of float
  | Phase of float
  | Cx
  | Cz
  | Swap
  | Csdg
  | Ccx
  | Ccz
  | Cswap
  | Cccx
      (** triply-controlled X — the four-qubit extension the full-ququart
          gate set supports natively on two devices (Sec. 1) *)
  | Cccz
  | Custom of string * Mat.t
      (** arbitrary unitary; arity inferred from the matrix dimension *)

type t = { kind : kind; qubits : int list }

val make : kind -> int list -> t
(** Builds a gate, checking operand count and distinctness, and that a
    rotation's angle is finite. Raises [Invalid_argument] otherwise. *)

val arity : kind -> int

val name : kind -> string

val unitary : kind -> Mat.t
(** The gate's unitary on [arity] qubits, most significant operand first. *)

val is_three_qubit : t -> bool

val controls : t -> int list
(** Qubits that act as controls (for CCZ, all operands: the gate is
    target-independent). *)

val targets : t -> int list

val equal : t -> t -> bool

val commutes : t -> t -> bool
(** Sound, conservative syntactic commutation. [true] only when the gates
    provably commute: disjoint operand sets, equal gates, or every shared
    qubit is acted on along the same axis — both gates block-diagonal in that
    qubit's computational basis (Z-like: diagonal gates, controls) or both in
    its X basis (X-like: X/Rx, CX-family targets). A [false] answer carries
    no information. *)

val pp : Format.formatter -> t -> unit
