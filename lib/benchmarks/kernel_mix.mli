(** A hand-built three-ququart program whose ops cover every kernel class
    under the executor's wire placement ({!Waltz_core.Executor.place}).

    Compiled programs dispatch only diagonal, monomial and single-wire
    kernels, so [two_wire] and [generic] would otherwise be measured only
    in isolation. [mix-slot] (an Ry, whose matrix is not symmetric) is
    dense on one slot ([single_wire]), [mix-pair] dense on both slots of
    one ququart ([two_wire]), and [mix-dense], [mix-cblock] (identity
    outside a block) and [mix-gen] dense on three or four slot wires
    ([generic]). Every op is a unitary, so the state norm survives a
    benchmark's repetition loop, and all three devices carry two qubits,
    giving full 4-level supports. *)

val program : unit -> Waltz_core.Physical.t
(** A fresh copy, with empty memos. *)
