(** Stabilizer propagation over the logical IR.

    A forward fold keeps the Clifford tableau of the circuit prefix until a
    non-Clifford gate makes symbolic tracking inexact. Tableau equality
    proves unitary equality up to global phase at any register width, so
    this certifies the optimizer on Clifford-dominated benchmarks far beyond
    the sizes the EQ replay can elaborate (8+ qubits), and flags
    identity-composing gate runs as removable dead code.

    Rules: STAB00 (partial/skipped), STAB01 (optimizer output certified
    equivalent), STAB02 (identity-composing run), STAB03 (optimizer output
    provably different — a compiler bug). *)

open Waltz_circuit

val tableau_of : Circuit.t -> Pauli.t option
(** The circuit's tableau, or [None] if any gate is not Clifford-trackable. *)

val equivalent : Circuit.t -> Circuit.t -> [ `Equal | `Different | `Unknown ]
(** [`Equal]: same unitary up to global phase, proven symbolically.
    [`Different]: proven distinct. [`Unknown]: a non-Clifford gate blocked
    the proof (or the register widths differ trivially resolve to
    [`Different]). *)

type run = { start : int; stop : int }
(** Inclusive gate-index range composing to the identity (up to phase). *)

val identity_runs : Circuit.t -> run list
(** Maximal-progress scan for identity-composing runs of length >= 2 inside
    Clifford segments (tracking resets at non-Clifford gates). *)

val check : Circuit.t -> Diagnostic.t list
