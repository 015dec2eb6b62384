(** Exact channel execution of compiled circuits on small registers.

    Evolves the full density matrix with the exact amplitude-damping and
    depolarizing channels instead of sampling trajectories. Limited to
    three 4-level (or six 2-level) devices; used to validate that the
    trajectory executor's mean fidelity is unbiased. *)

type result = { mean_fidelity : float; inputs : int }

val max_exact_devices : device_dim:int -> int

(** {1 The channels}

    The oracle's half of the noise model, exported so that the trajectory
    step can be checked branch by branch against the channel it samples
    (test/test_exact.ml). *)

val damping_kraus : d:int -> Executor.damp_spec -> Waltz_linalg.Mat.t list
(** The Kraus set of one damping window on a [d]-level device: the no-jump
    diagonal [scales], then √λ_m·|0⟩⟨m| for each level [m] with λ_m > 0. *)

val error_parts :
  device_dim:int -> Executor.op_noise -> (int list * Waltz_linalg.Mat.t array) list
(** An op's depolarizing channel as {!Waltz_sim.Density.depolarize} parts:
    per error part, its device and its radix's {!Waltz_noise.Noise.pauli_set}
    lifted onto the device by {!Executor.embed_error}. *)

(** {1 Evolution} *)

val simulate_exact :
  ?model:Waltz_noise.Noise.model ->
  ?inputs:int ->
  ?base_seed:int ->
  Physical.t ->
  result
(** Average of ⟨ψ_ideal|ρ_final|ψ_ideal⟩ over [inputs] Haar-random logical
    inputs (default 10; input k is seeded [base_seed + 7919·k], like
    trajectory k). Noise is {!Executor.noise_schedule}, the one the
    trajectories sample, applied as exact channels: each op's damping
    windows ({!damping_kraus}), its unitary, then its depolarizing channel
    over {!error_parts} at [min 1 error_p]. Raises [Invalid_argument] if
    [inputs < 1] or if {!Waltz_noise.Noise.check} refuses the model. *)
