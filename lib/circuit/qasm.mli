(** OpenQASM 2.0 interchange for the logical IR.

    Export covers the whole gate set ([Gate.Custom] excepted): CCZ and CS†
    are emitted through small [gate] definitions in the prelude; everything
    else maps to qelib1 names. Import reads the subset needed to round-trip
    our own output plus common hand-written circuits, in one left-to-right
    pass, linear in the length of the text. *)

val to_string : Circuit.t -> string

val of_string : string -> Circuit.t
(** The grammar it accepts:
    - Tokens may be separated by any blanks (space, tab, newline, carriage
      return, form feed) and [//] comments, which run to the end of the
      line. A statement ends at [;] or at the end of the text.
    - Keywords and gate names are case-insensitive; the register name is
      case-sensitive.
    - [qreg NAME\[SIZE\]] declares the one register, before the first gate.
      NAME is a run of letters, digits and [_]; SIZE is a positive decimal
      integer.
    - A gate is [NAME OPERAND, ..., OPERAND], each operand [REG\[INDEX\]]
      with INDEX a decimal integer. The names are x, y, z, h, s, sdg, t,
      tdg, cx, cz, swap, csdg, ccx (or toffoli), ccz, cswap (or fredkin),
      c3x (or cccx) and cccz, plus the rotations rx, ry, rz and u1 (or p),
      which take [(ANGLE)] after their name.
    - ANGLE is an optional [-], then atoms joined by [*] and [/], each atom
      [pi] or a float literal ([float_of_string]), folded left to right:
      [-3*pi/4], [2*pi/3], [1e-3].
    - Ignored: a statement whose first word begins with [openqasm],
      [include], [creg], [barrier] or [measure]; and a [gate] definition,
      from the word [gate] (after a blank, [;] or [}], and before a blank)
      to its first [}], wherever it stands. Definitions are not expanded.

    Refusals: each is one [Failure "QASM line N: ..."], [N] the 1-based
    source line of the offending statement, and the message is one line
    in which quoted input is clipped to 32 bytes plus ["..."]:
    - a statement that does not start with a name, such as a block
      [{ ... }] or a stray [}] outside a gate definition; an unsupported
      gate;
    - a rotation without [(ANGLE)]; a bad angle, or one that is not finite;
    - a bad operand; an unknown register; an operand count that does not
      match the gate; duplicate, negative or out-of-range operands;
    - a bad [qreg] (no name, no [\[], no [\]], or anything but [;] after
      it); a size that is not a positive integer; a second [qreg]; a gate
      before the [qreg];
    - a gate definition with no [}] ([N] is the line of its [gate]);
    - a text with no [qreg] ([N] is its last line that is not blank). *)
