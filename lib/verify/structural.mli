(** Pass 1 — structural well-formedness of both IRs.

    Physical programs: unique devices per op, gate dimension = 2^|targets|,
    targets drawn from the op's parts, in-range wires and occupancy
    annotations, injective placement maps, unitary gate matrices (rules
    [WF00]-[WF09]). Logical circuits: operand range/distinctness and custom
    gate shape (rules [CIR01]-[CIR04]). *)

open Waltz_circuit

val check_program : Waltz_core.Physical.t -> Diagnostic.t list

val check_circuit : Circuit.t -> Diagnostic.t list

val check_link : Circuit.t -> Waltz_core.Physical.t -> Diagnostic.t list
(** [CIR04]: the compiled program must declare the circuit's qubit count. *)

val fatal : Diagnostic.t list -> bool
(** True when the structural findings make later passes unsafe to run
    (out-of-range wires, wrong gate dimensions, duplicate target wires,
    broken maps). *)

val capacity : Waltz_core.Physical.t -> int
(** Qubits one device can hold: [device_dim / 2]. *)
