(** Symplectic Pauli strings and Clifford tableaux.

    A tableau stores the images [U X_i U†] and [U Z_i U†] of the generator
    Paulis under a Clifford unitary [U], each as an n-qubit Pauli string with
    a sign (Aaronson–Gottesman bit-pair representation). Conjugating by the
    supported Clifford gates (H, S, S†, X, Y, Z, CX, CZ, SWAP) updates the
    tableau in O(n) per gate; two tableaux are equal iff the underlying
    unitaries are equal up to global phase — at any register width. *)

type pauli = {
  x : Bytes.t;  (** X component per qubit (one byte per qubit, 0/1) *)
  z : Bytes.t;
  mutable neg : bool;  (** overall sign: [true] means the -P image *)
}

type t = { n : int; xs : pauli array; zs : pauli array }
(** [xs.(i)] is the image of X_i, [zs.(i)] of Z_i. *)

val identity : int -> t

val equal : t -> t -> bool

val is_identity : t -> bool
(** The tableau of any unitary that is a global phase times the identity. *)

val key : t -> string
(** Injective serialization, usable as a hash key for prefix-state interning. *)

val is_clifford : Waltz_circuit.Gate.kind -> bool
(** Gates the tableau can track exactly. *)

val apply : t -> Waltz_circuit.Gate.t -> bool
(** Conjugates the tableau by the gate in place. Returns [false] — leaving
    the tableau untouched — when the gate is not Clifford-trackable, has the
    wrong number of operands or an operand is out of range. *)

val pp_pauli : Format.formatter -> pauli -> unit
