(** Exact density-matrix evolution for small registers.

    The trajectory method (Sec. 6.4) samples noise stochastically; this
    module evolves the full density matrix with exact channels instead, for
    registers of up to three ququarts. Its purpose is validation: the
    trajectory simulator's mean fidelity must converge to the exact channel
    value (see the executor cross-check tests).

    ρ is held as vec(ρ), a {!State.t} over the register's wires twice
    (rows, then columns), and every operator goes through {!State.apply}:
    K on the row wires and conj K on the column wires. *)

open Waltz_linalg

type t

val of_pure : State.t -> t

val trace : t -> float

val to_mat : t -> Mat.t
(** ρ as a dense N×N matrix (a copy). *)

val apply_unitary : t -> targets:int list -> Mat.t -> unit
(** ρ ← UρU† with [u] on the listed wires. *)

val apply_kraus : t -> targets:int list -> Mat.t list -> unit
(** ρ ← Σ_m K_m ρ K_m† (the Kraus operators act on the listed wires like
    unitaries). Raises if the channel is not trace preserving within
    1e-6. *)

val depolarize : t -> parts:(int list * Mat.t array) list -> p:float -> unit
(** The paper's symmetric depolarizing channel: with total probability [p],
    a uniformly random non-identity element of the product of the given
    per-part operator sets (each set's element 0 must be the identity) is
    applied; each part lists the wires its set acts on, and no two parts
    share a wire. Computed in closed form from each part's averaged set,
    without listing the products. *)

val fidelity_with_pure : t -> State.t -> float
(** ⟨ψ|ρ|ψ⟩. *)
