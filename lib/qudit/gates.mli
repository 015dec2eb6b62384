(** Standard qubit gate matrices.

    Multi-qubit gates follow most-significant-first wire order: for [cx] the
    first wire is the control; for [ccx] the first two wires are controls and
    the last is the target; for [cswap] the first wire is the control. *)

open Waltz_linalg

val id2 : Mat.t

val x : Mat.t

val y : Mat.t

val z : Mat.t

val h : Mat.t

val s : Mat.t

val sdg : Mat.t

val t : Mat.t

val tdg : Mat.t

val rx : float -> Mat.t

val ry : float -> Mat.t

val rz : float -> Mat.t

val phase : float -> Mat.t
(** diag(1, e^{iθ}). *)

val cx : Mat.t

val cz : Mat.t

val cs : Mat.t
(** The controlled S gate: diag(1, 1, 1, i). *)

val csdg : Mat.t

val swap : Mat.t

val iswap : Mat.t

val ccx : Mat.t

val ccz : Mat.t

val cswap : Mat.t

val itoffoli : Mat.t
(** The doubly-controlled iX gate of Kim et al.: acts as [[0, i]; [i, 0]] on
    the target when both controls are |1⟩. Satisfies
    [ccx = csdg_{c0 c1} · itoffoli]. *)

val controlled : Mat.t -> Mat.t
(** [controlled u] adds one |1⟩-control as the new most significant wire. *)
