(** The qudit noise model of Sec. 6.5.

    Two error mechanisms:
    - symmetric depolarizing after each gate, drawn from the generalized
      Pauli set restricted to each operand's radix (P₂ ⊗ P₄ for a
      mixed-radix pair, never P₄ ⊗ P₄);
    - generalized amplitude damping over idle windows, with per-level decay
      λ_m = 1 − exp(−Δt / T1(m)) and T1(m) = T1/m (levels ≥ 2 optionally
      scaled further — the Fig. 9c knob).

    The total error probability of a gate's depolarizing draw is tied to the
    calibrated pulse fidelity ([error = 1 − F]); the draw is uniform over
    the non-identity Pauli products. *)

open Waltz_linalg

type model = {
  t1_base_ns : float;  (** T1 of level |1⟩ *)
  t1_high_scale : float;
      (** divides the T1 of levels ≥ 2 (1.0 = paper's theoretical 1/k) *)
  ww_error_scale : float;
      (** multiplies the error probability (1 − F) of every pulse that
          touches ququart levels — the Fig. 9b sensitivity knob *)
  seed : int;
}

val default : model
(** T1 = 163.45 µs, no extra scaling, seed 2023. *)

val check : model -> unit
(** Raises [Invalid_argument], naming the field, unless [t1_base_ns] and
    [t1_high_scale] are finite and > 0 and [ww_error_scale] is finite and
    >= 0. Every consumer of a model runs it once per call: the noise
    schedule that the trajectories and the exact oracle read, and each EPS
    estimator. *)

val gate_error : model -> fidelity:float -> touches_ww:bool -> float
(** The depolarizing probability of a pulse calibrated at [fidelity]:
    [1 − fidelity], times [ww_error_scale] when the pulse touches ququart
    levels. Not clamped: the trajectories, the exact oracle and the EPS
    estimator each clamp it to the range they need. *)

val pauli_set : d:int -> Mat.t array
(** The d² generalized Paulis X^a·Z^b, identity first (index 0). The d = 2
    and d = 4 sets are shared and must be treated as read-only; any other d
    is built fresh. *)

val error_products : dims:int list -> int
(** M = Π d², the size of P_{d1} ⊗ … ⊗ P_{dk}. *)

val error_product : dims:int list -> int -> Mat.t list
(** [error_product ~dims k] is element [k] (in [0, M)) of
    P_{d1} ⊗ … ⊗ P_{dk} as its per-operand factors, identity factors
    included so the list always matches [dims]: the mixed-radix digits of
    [k], first operand most significant, index {!pauli_set}. Element 0 is
    the identity. *)

val draw_error : Rng.t -> dims:int list -> p:float -> Mat.t list option
(** With probability [p], draws [k] uniformly from [1, M) and returns
    [Some (error_product ~dims k)], a non-identity product; otherwise
    [None]. *)

val damping_lambdas : model -> d:int -> dt_ns:float -> float array
(** [λ_0 … λ_{d-1}] for an idle window of [dt_ns]; λ_0 = 0. *)

val decoherence_survival : model -> max_level:int -> dt_ns:float -> float
(** exp(−dt / T1(max_level)) — the no-decay probability used by the
    coherence EPS estimator (Sec. 6.3). [max_level] 0 gives 1. *)
