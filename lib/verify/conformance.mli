(** Passes 3-5 — topology legality, schedule safety, calibration and
    strategy conformance. *)

open Waltz_arch
open Waltz_qudit

val check_topology : Topology.t -> Waltz_core.Physical.t -> Diagnostic.t list
(** [TOP01]-[TOP03]: multi-device ops act on coupled devices, the program
    fits the topology, and no pulse spans more devices than the hardware
    drives (2 on ququarts, 3 on bare qubits for the iToffoli). *)

val check_schedule : Waltz_core.Physical.t -> Diagnostic.t list
(** [SCHED01]-[SCHED03]: checks the memoized starts for device
    exclusivity and ASAP consistency, and [Physical.total_duration] against
    the critical path of an independent ASAP replay of the dependency DAG. *)

val check_calibration : Waltz_core.Physical.t -> Diagnostic.t list
(** [CAL01]-[CAL03]: every op's (duration, fidelity) pair must match a
    Table 1/2 calibration entry legal for the program's strategy, and no
    two-level program may touch levels |2>/|3>. *)

val catalog : Calibration.entry list
(** Every calibration entry the compiler can emit. *)

val bare_catalog : Calibration.entry list
(** The subset available on two-level (bare qubit) hardware. *)
