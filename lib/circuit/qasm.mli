(** OpenQASM 2.0 interchange for the logical IR.

    Export covers the whole gate set ([Gate.Custom] excepted): CCZ and CS†
    are emitted through small [gate] definitions in the prelude; everything
    else maps to qelib1 names. Import supports the subset needed to round-
    trip our own output plus common hand-written circuits: one quantum
    register, the standard one-/two-/three-qubit gates, angle expressions
    over [pi] with [*], [/] and unary minus, comments, and ignored
    [creg]/[measure]/[barrier] statements. *)

val to_string : Circuit.t -> string

val of_string : string -> Circuit.t
(** Raises one [Failure "QASM line N: ..."], [N] the 1-based source line of
    the offending statement, on malformed or unsupported input: a bad
    angle or operand, an unknown gate or register, a register size that is
    not a positive integer, a gate before the [qreg] declaration, and
    negative, duplicate or out-of-range operands. *)
