(** Exact channel execution of compiled circuits on small registers.

    Evolves the full density matrix with the exact amplitude-damping and
    depolarizing channels instead of sampling trajectories. Limited to
    three 4-level (or six 2-level) devices; used to validate that the
    trajectory executor's mean fidelity is unbiased. *)

type result = { mean_fidelity : float; inputs : int }

val max_exact_devices : device_dim:int -> int

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
    windows, its unitary, then its depolarizing channel at
    [min 1 error_p]. Raises [Invalid_argument] if [inputs < 1]. *)
