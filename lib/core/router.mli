(** SWAP routing with the paper's disruption-cost heuristic (Sec. 5.2).

    Movement is one virtual-slot step at a time; each step strictly reduces
    the mover's device distance to its goal (with a bounded allowance for
    sideways steps around blocked devices), and among the admissible steps
    the one minimizing the weighted disruption
    D(i,j) = Σ_k w(i,k)(d(v,φk) − d(u,φk)) + w(j,k)(d(u,φk) − d(v,φk))
    is chosen. *)

val adjacent_or_same : Layout.t -> int -> int -> bool
(** Device-level adjacency test for two logical qubits. *)

val route_adjacent_to_device :
  Layout.t -> ?blocked:int list -> ?frozen:int list -> device:int -> int -> unit
(** Move a logical qubit until its device equals or neighbours [device].
    [blocked] devices are never entered; [frozen] logical qubits are never
    displaced (freeze the qubit that holds [device] to keep the goal
    fixed). Raises [Failure] if no progress is possible. *)

val route_pair : Layout.t -> ?blocked:int list -> ?frozen:int list -> int -> int -> unit
(** Make two logical qubits device-adjacent (or co-located), moving
    whichever side disrupts the layout least at each step. *)
