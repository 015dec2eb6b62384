(** Static resource certification (the RES diagnostic family).

    [certify] runs an abstract interpretation over a compiled {!Physical.t}
    program and emits a machine-checkable {e resource certificate} for one
    (program × trajectories × batch × domains) run configuration: sound
    upper bounds on peak heap payload bytes (state planes, per-domain
    lockstep workspaces, scratch arenas, plan-resident kernel
    tables, cache residency), on modeled wall-clock (the schedule's
    makespan, {!Waltz_core.Physical.total_duration}, folded through
    trajectory count, batch width and domain count), on pool seat demand,
    plus the exact static kernel-class dispatch mix the executor's
    [plan_dispatch] will flush.

    Soundness is by construction: every byte figure is computed through the
    same formulas the executor itself observes through
    ({!Waltz_core.Executor.block_workspace_bytes} and friends), so the invariant
    "certified ≥ observed" cannot be broken by the two sides counting
    different things. The certificate is independent of the noise model —
    memory, dispatch mix and modeled schedule are functions of the compiled
    program alone — so one certificate covers every model.

    [check_observed] cross-checks a certificate against the telemetry
    counters, gauges and duration sketches left behind by a run
    (doc/OBSERVABILITY.md), emitting RES02 errors on divergence (an
    analysis bug by definition) and RES03 warnings on cache-residency
    blowup; [check_budget] enforces user limits (RES01). The readback
    window must hold exactly one run: reset telemetry, enable metrics,
    simulate once, then check — the `waltz_cli budget` subcommand and
    `make budget-smoke` script exactly this discipline. *)

open Waltz_core
module Diagnostic = Waltz_verify.Diagnostic

type interval = { lo : float; hi : float }
(** Closed interval, in modeled (device-schedule) nanoseconds. *)

type run_shape = {
  trajectories : int;
  batch : int;  (** requested lockstep width (clamped like the executor) *)
  domains : int;
}

type t = {
  strategy : string;
  device_count : int;
  device_dim : int;
  dim : int;  (** state dimension: device_dim ^ device_count *)
  ops : int;
  shape : run_shape;
  (* memory (payload bytes) *)
  program_bytes : int;  (** the compiled program's own gate matrices/maps *)
  state_bytes : int;  (** one state vector (two planes) *)
  block_workspace_bytes : int;  (** per participating domain, at the clamped width *)
  scratch_bytes : int;  (** per-domain scratch arena bound *)
  plan_bytes : int;
      (** the program's kernel memo: each distinct kernel's entries and its
          target, offset and iteration tables, observed-comparable *)
  plan_table_bytes : int;  (** per-call support/leakage/damping table bound *)
  cache_bytes : int;
      (** worst-case residency: as many copies of the program with its
          kernel memo as the program cache's ops budget holds, at least
          one *)
  peak_bytes : int;  (** sound single-run live peak at [shape] *)
  (* modeled time *)
  schedule_ns : float;  (** one schedule replay: the makespan *)
  total_ns : interval;
      (** the run: [hi] replays every pass serially, [lo] spreads the
          passes over the seats *)
  (* pool *)
  seat_demand : int;  (** seats incl. the caller the run can usefully occupy *)
  queue_depth : int;  (** items published: one per lockstep block *)
  (* dispatch *)
  dispatch_mix : (string * int) list;
      (** static ops per kernel class, every class listed, catalog order *)
}

exception Too_large
(** Raised by {!certify} when the register's amplitude count or one of the
    run's byte figures exceeds [max_int]: such a run cannot be counted, so
    it cannot be admitted ([waltz_cli budget] reports RES01). *)

val certify :
  ?trajectories:int -> ?batch:int -> ?domains:int -> Physical.t -> t
(** Certify one run configuration (defaults: 1 trajectory, batch 1, 1
    domain — fixed, environment-independent values, so the default
    certificate is deterministic under any [WALTZ_BATCH]/[WALTZ_DOMAINS]).
    Pure: the kernels are placed fresh, and the program's kernel memo is
    neither read nor written. Raises {!Too_large} rather than return
    figures that wrapped. *)

type budget = { limit_bytes : int option; limit_ms : float option }

val check_budget : t -> budget -> Diagnostic.t list
(** RES01 errors when the certified peak bytes or worst-case modeled
    duration exceed the given limits. *)

val check_observed : ?cache_blowup_ratio:float -> t -> Diagnostic.t list
(** Cross-check the certificate against the current telemetry readbacks
    (counters/gauges/histograms from exactly one run — see the module
    preamble for the reset-run-check discipline): RES02 on any divergence
    from the certified dispatch mix, trajectory count, schedule makespan,
    workspace/plan byte bounds or seat bounds; RES03 when worst-case cache
    residency exceeds [cache_blowup_ratio] × the live peak (default 4.0).
    With telemetry disabled every readback is empty and the list is. *)

val summary : t -> Diagnostic.t
(** The RES00 info diagnostic summarizing the certificate (emitted by
    [waltz_cli budget]). Deterministic: no timestamps, no env reads. *)

val dump : t -> string
(** Canonical serialization (hex floats, fixed field order) — the
    determinism grid asserts it is bit-identical across domain counts,
    batch widths and telemetry states. *)
