(** Compiled physical operations and schedules.

    A physical op is a calibrated pulse acting on one, two or three devices.
    Its logical effect is recorded as a unitary over *virtual wires* — the
    (device, slot) pairs it touches — which the executor lifts to the
    simulation Hilbert space. Occupancy annotations drive the noise model
    and the coherence EPS estimator. *)

open Waltz_linalg

type noise_role =
  | P2 of int  (** errors drawn from the qubit Paulis on this slot *)
  | P4  (** errors drawn from the ququart Paulis on the whole device *)
  | Quiet  (** device participates but holds no information (e.g. empty) *)

type device_part = {
  device : int;
  noise : noise_role;
  occ_before : int;  (** qubits held before the op (0, 1 or 2) *)
  occ_after : int;
}

type op = {
  label : string;
  parts : device_part list;  (** devices touched, unique *)
  targets : (int * int) list;  (** (device, slot) virtual wires, gate order *)
  gate : Mat.t;  (** unitary over [targets] (dimension 2^|targets|) *)
  duration_ns : float;
  fidelity : float;
  touches_ww : bool;  (** pulse uses levels |2⟩/|3⟩ (Fig. 9b scaling) *)
}

type kernel_memo = {
  kops : op list;  (** the op list the kernels were placed for *)
  kdims : int array;  (** the register shape they were placed against *)
  kernels : Waltz_sim.Kernel.t array;
      (** one placed kernel per op, in op order; ops that repeat one lifted
          gate on the same devices share one *)
}
(** The executor's placed kernels for a program. They depend on the ops and
    the register shape only, never on the noise model, so every model
    simulated on the program reuses them. *)

type schedule_memo = {
  for_ops : op list;  (** the op list the schedule was computed from *)
  starts : (op * float) array;  (** {!schedule_array} *)
  idle : float array array * float array;  (** {!idle_ns} *)
}

type t = {
  strategy : Strategy.t;
  n_logical : int;
  device_count : int;
  device_dim : int;  (** 2 for qubit-only runs, 4 otherwise *)
  ops : op list;
  initial_map : (int * int) array;  (** logical qubit → (device, slot) at t=0 *)
  final_map : (int * int) array;
  mutable schedule_memo : schedule_memo option;
      (** lazily memoized ASAP schedule, its idle windows and the [ops] they
          came from — construct with [None] and treat as private *)
  mutable kernel_memo : kernel_memo option;
      (** the executor's placed kernels, written on the program's first
          simulate — construct with [None] and treat as private *)
}

val make_op :
  label:string ->
  parts:device_part list ->
  targets:(int * int) list ->
  gate:Mat.t ->
  entry:Waltz_qudit.Calibration.entry ->
  touches_ww:bool ->
  op
(** Builds an op from a calibration entry, checking that the gate dimension
    matches the target count. *)

val schedule : t -> (op * float) list
(** ASAP start times: each op starts when all its devices are free.
    Allocates a fresh list from {!schedule_array} — prefer the array form
    in hot paths. *)

val schedule_array : t -> (op * float) array
(** The memoized ASAP schedule, computed on first call and cached on the
    program with the op list it came from; a copy with other [ops]
    recomputes it. Shared, not a copy — callers must not mutate it. *)

val total_duration : t -> float

val idle_ns : t -> float array array * float array
(** The idle windows of the ASAP schedule, recorded by the walk that
    computes it and memoized with it. For op [i] in schedule order,
    [(fst (idle_ns p)).(i).(k)] is how long the device of its [k]-th part
    sat idle before the op starts: the start minus the end of that device's
    previous op, or minus 0 for its first op. [(snd (idle_ns p)).(d)] is
    device [d]'s idle time from its last op to {!total_duration}. Each
    consumer applies its own threshold to these windows. *)

val op_count : t -> int

val two_device_op_count : t -> int
(** Ops touching ≥ 2 devices (the paper's "two-qudit gate" count). *)

val summary : t -> string
(** One-line human summary: ops, 2-device ops, duration. *)

val pp_ops : Format.formatter -> t -> unit

val dump : t -> string
(** Canonical full-precision serialization (floats as [%h] hex): two
    programs dump identically iff they are bit-identical. Used by the
    compile determinism tests and [make compile-smoke]. *)
