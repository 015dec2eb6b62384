(** Occupancy/leakage reachability over the compiled IR.

    A forward fold with one abstract value per device: the bitmask of
    ququart levels (|0⟩..|3⟩) the device can hold at that program point, for
    *any* logical input state. Each op pushes the reachable product set
    through its lifted unitary ({!Waltz_core.Executor.lift_gate}), so
    ENC/DEC/SWAP choreography is tracked exactly — including strong updates
    that shrink a device's set (e.g. a decode provably returning a ququart
    to its computational levels).

    It complements the OCC occupancy replay rather than replacing it: OCC
    checks the IR's own bookkeeping (the [occ_before]/[occ_after],
    [noise_role] and [final_map] annotations) against a replay of the slot
    moves, while this analysis reads none of them and proves which physical
    levels the unitaries can populate. Rules: LEAK01 (a pulse not
    calibrated for |2⟩/|3⟩ can see an encoded device), LEAK02 (provably dead
    ENC/DEC pair), LEAK03 (summary). *)

open Waltz_core

val transfer : device_dim:int -> Physical.op -> int array -> int array
(** [transfer ~device_dim op masks]: the per-device level masks after [op],
    given those before it. A squared amplitude below 1e-9 counts as a
    structural zero. *)

val masks : Physical.t -> int array array
(** [(masks p).(i)] holds the per-device masks just before op [i]; the last
    entry, at index [List.length p.ops], holds the exit masks. Entry [0] is
    the initial placement: empty slots are provably |0⟩, occupied slots are
    unconstrained. *)

val check : Physical.t -> Diagnostic.t list
