(** Deterministic random sources shared by the simulator and noise model.

    A thin wrapper over [Random.State] that adds the samplers the trajectory
    method needs: Gaussians (for Haar-random states) and weighted choices
    (for Kraus-operator selection). Every stochastic entry point in this
    project takes an explicit [Rng.t] so runs are reproducible from a seed. *)

type t

val make : seed:int -> t

val split : t -> t
(** A new generator seeded from the current one; use to give independent
    streams to parallel trajectories. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound). *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). *)

val bool : t -> bool

val gaussian : t -> float
(** Standard normal via Box–Muller (polar form). Each draw of a pair
    yields two normals; the second is kept for the next call. *)

val gaussian_into : t -> float array -> int -> unit
(** [gaussian_into t dst i] stores the next {!gaussian} draw in [dst.(i)]
    without boxing it: the same stream, in the same order, so calls to the
    two may be interleaved freely. *)

val weighted_choice : t -> float array -> int
(** [weighted_choice t w] samples index [i] with probability [w.(i) / Σw].
    Weights must be non-negative with positive sum. *)

val shuffle_in_place : t -> 'a array -> unit
