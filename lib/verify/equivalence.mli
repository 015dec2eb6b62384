(** Pass 6 — semantic equivalence by sparse basis replay.

    Replays the source circuit and the compiled program on logical basis
    inputs, each a sparse state: every input at n <= 8, else all-zeros,
    all-ones and 30 inputs with bits set with probability 0.8 (constant
    seed). Each output must sit on the slots [final_map] occupies ([EQ02])
    and equal the circuit's column up to one global phase shared by all
    inputs ([EQ01]). Emits an [EQ00] note instead when the support passes
    4096 amplitudes, the register needs more than 62 bits, or n exceeds
    [max_qubits] (unbounded by default). *)

val check :
  ?max_qubits:int -> Waltz_circuit.Circuit.t -> Waltz_core.Physical.t -> Diagnostic.t list

type state = (int, Complex.t) Hashtbl.t
(** Basis index → amplitude. *)

val wire_bit : Waltz_core.Physical.t -> int * int -> int
(** The bit of a (device, slot) wire in the dense [State] index: device 0
    is most significant, and slot 0 is the high bit of a ququart level. *)

val apply : int list -> Waltz_linalg.Mat.t -> state -> state
(** [apply bits m] puts the 2^k matrix [m] on the k bit positions [bits]
    (the head is [m]'s most significant index bit), dropping amplitudes
    with |a|² < 1e-24. The program step for an op is
    [apply (List.map (wire_bit p) op.targets) op.gate]. *)
