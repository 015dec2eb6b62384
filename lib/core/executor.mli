(** Trajectory-method execution of compiled circuits (Sec. 6.4).

    Each trajectory draws a Haar-random logical input state (random *quantum*
    states, as the paper stresses), runs the compiled schedule twice — once
    ideally and once with stochastic noise — and reports the squared overlap.
    Noise per op: amplitude damping on each participating device over its
    exact accumulated idle time, the op's unitary, then a depolarizing draw
    with probability 1 − F restricted to the operands' radices. *)

type config = {
  model : Waltz_noise.Noise.model;
  trajectories : int;
  base_seed : int;
}

val default_config : config
(** 50 trajectories, default noise model, seed 2023. *)

type result = { mean_fidelity : float; sem : float; trajectories : int }

val max_devices : device_dim:int -> int
(** Memory guard: the largest register the executor will simulate
    (11 four-level or 22 two-level devices). *)

val simulate : ?config:config -> ?domains:int -> ?batch:int -> Physical.t -> result
(** Raises [Invalid_argument] if the compiled circuit exceeds
    [max_devices] or the trajectory count is negative. Zero trajectories
    is a plan-only call: the execution plan is built, no trajectory runs,
    and the statistics are NaN.

    A plan has two parts, each built once at its own level. A program gets
    one kernel per op ({!place}), memoized on the program
    ([Physical.kernel_memo]) on its first call. Each call builds only its
    model's error probabilities and damping tables, so a sweep over noise
    models places every program's kernels once.

    Trajectories fan out across [domains] OCaml domains (default: the
    [WALTZ_DOMAINS] environment knob, else the machine's recommended domain
    count; [1] runs the exact legacy sequential path). Each trajectory owns
    an independent seed stream ([base_seed + 7919·k]) and results are
    reduced in trajectory order, so every statistic is bit-identical at
    every domain count.

    Within a domain, [batch] trajectories run in lockstep over a
    structure-of-arrays state block (default: the [WALTZ_BATCH] environment
    knob, else {!default_batch}; [1] runs one-lane blocks). Each lane keeps
    its own RNG stream and every batched sweep performs the same per-lane
    floating-point operations in the same order at every width, so the
    statistics are also bit-identical at every batch width — the
    determinism suite enforces the full [batch] × [domains] grid. *)

val default_batch : unit -> int
(** The lockstep batch width used when [?batch] is not given: the
    [WALTZ_BATCH] environment knob (clamped to [1, 1024]), else 8. *)

type detailed = {
  summary : result;
  mean_leakage : float;
      (** average final population outside the occupied computational
          subspace (errors that promoted bare qubits into |2⟩/|3⟩) *)
  mean_error_draws : float;  (** average depolarizing events per trajectory *)
}

val simulate_detailed :
  ?config:config -> ?domains:int -> ?batch:int -> Physical.t -> detailed
(** See {!simulate} for the [domains]/[batch] knobs and the determinism
    guarantee. *)

(** {1 Internals shared with the exact (density-matrix) executor} *)

val lift_gate : device_dim:int -> Physical.op -> int list * Waltz_linalg.Mat.t
(** The devices an op touches, in order of first appearance among its
    targets, and its gate Kronecker-embedded in their joint space
    ({!Waltz_qudit.Embed.on_qubits} over two slot wires per ququart, one
    wire per qubit). Built afresh on every call. The executor never applies
    it: it is the independent reference that {!Exact}, the leakage pass and
    the tests read. *)

type damp_spec = { dwire : int; lambdas : float array; scales : float array }
(** One amplitude-damping window: the device, its
    {!Waltz_noise.Noise.damping_lambdas} and its no-jump Kraus diagonal
    ({!Waltz_sim.State_block.damp_scales}). A trajectory samples it with
    {!Waltz_sim.State_block.damp_with}. *)

type op_noise = {
  error_p : float;  (** {!Waltz_noise.Noise.gate_error}, clamped at 0 from below *)
  error_parts : (int * Physical.noise_role) list;  (** (device, role) of each part that draws *)
  error_dims : int list;  (** the radix of each error part's Pauli draw *)
  pre_damp : damp_spec list;  (** the windows that close when the op starts *)
}

type noise_schedule = { op_noise : op_noise array; final_damp : damp_spec list }
(** One [op_noise] per op in schedule order, and the windows that close at
    the end. *)

val noise_schedule : model:Waltz_noise.Noise.model -> Physical.t -> noise_schedule
(** What [model] decides for a program, from {!Waltz_noise.Noise.gate_error}
    and {!Physical.idle_ns} (damping windows of more than 1e-9 ns). The
    trajectories sample it and {!Exact} applies it as exact channels.
    Raises [Invalid_argument] on a model that {!Waltz_noise.Noise.check}
    refuses. *)

val embed_error : device_dim:int -> Physical.noise_role -> Waltz_linalg.Mat.t -> Waltz_linalg.Mat.t
(** Lifts a per-operand Pauli factor onto a device's full space (a P2 factor
    on a 4-level device lands on the occupied slot). *)

val apply_error :
  device_dim:int -> Waltz_sim.State_block.t -> int -> op_noise -> Waltz_linalg.Mat.t list -> unit
(** [apply_error ~device_dim blk k n factors] applies one drawn error
    product of [n] ({!Waltz_noise.Noise.error_product} over
    [n.error_dims]) to lane [k]: each factor lifted by {!embed_error} onto
    its part's device, through {!Waltz_sim.State_block.apply_lane}. *)

val initial_allowed : Physical.t -> int list array
(** Allowed levels per device for preparing random logical inputs under the
    initial placement. *)

(** {1 Byte accounting shared with the resource certificates}

    The executor observes its own allocations through these formulas, and
    [Waltz_analysis.Resource] certifies through the same ones, so the
    soundness invariant "certified >= observed" cannot be broken by the two
    sides counting different things. Counter [executor.plan.bytes] is
    flushed when a program's kernel memo is built, with
    [placement.placed_bytes]. Counter [executor.workspace.block_bytes]
    counts the bytes allocated when a domain's workspace grows: each domain
    keeps its planes and lane buffers across calls and allocates only when
    they are shorter than the call needs, so a domain's first simulate
    observes the whole {!block_workspace_bytes} and a call that reuses
    them observes 0. All figures are array payload bytes (8 per float or
    int word), headers excluded. *)

val block_workspace_bytes : dims:int array -> cap:int -> int
(** Payload bytes of one job's lockstep workspace at batch width [cap]:
    two SoA blocks (ideal and noisy lanes; the inputs are drawn into the
    ideal block and copied into the noisy one) plus the per-lane reduction
    buffers, [2·2·8·n·cap + 2·8·cap] for [n] amplitudes. A domain keeps
    the largest workspace it has run, so its residency is this figure at
    the largest [n·cap] (and [cap]) simulated on it. *)

type placement = {
  dims : int array;  (** the register shape, one entry per device *)
  kernels : Waltz_sim.Kernel.t array;
      (** one per op, in op order: its own gate on its wires of the
          register's two-level wire view. Device d, slot s is wire 2d + s
          on a ququart register and wire d on a qubit register, the bit
          order of [Equivalence.wire_bit]; the view addresses the same flat
          amplitudes as [dims]. Ops that repeat one gate ([==]) on one
          target list share a kernel. *)
  placed_bytes : int;
      (** {!Waltz_sim.Kernel.footprint_bytes} summed over the distinct
          kernels — what a memo build adds to [executor.plan.bytes] *)
}

val place : Physical.t -> placement
(** A fresh placement of the program's kernels, built exactly as the
    kernel memo builds it but neither reading nor writing the memo — the
    resource certificate's view of the plan. Raises [Invalid_argument]
    when an op's gate does not fit its targets ({!Waltz_sim.Kernel.compile}). *)
