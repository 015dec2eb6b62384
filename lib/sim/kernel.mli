(** Plan-time compiled gate kernels.

    The trajectory executor applies the same gates thousands of times
    (trajectories × shots × noise points), and most gates the Waltz emits
    are *structured*: Z-type diagonals (CZ/CCZ/Rz) and permutations with
    phases (X(+m), controlled-X, SWAP, ENC). [compile] reads a unitary once,
    keeps its structure (a phase table, a permutation with phases, or the
    dense entries) and precomputes every index the per-trajectory
    application needs on its target wires (subspace offsets, spectator
    iteration structure), so the per-block cost is one dispatch and zero
    allocation — gather buffers come from the per-domain
    {!Waltz_runtime.Scratch} arena. {!apply_block} is the only apply path:
    a single state vector is a one-lane block.

    Classes, in classification order:

    - [diagonal] — phase table, one complex multiply per amplitude;
    - [monomial] — permutation + phase, one move-and-multiply per
      amplitude, no inner product;
    - [single_wire] — dense on one wire, blocked stride loop (no odometer);
    - [two_wire] — dense on two wires, odometer-free three-level loop;
    - [generic] — dense on three or more wires, spectator-wire odometer
      (the reference gather/multiply/scatter).

    The executor compiles each op's own gate on the register's two-level
    wire view (one wire per ququart slot), so compiled programs dispatch
    only the first three: every pulse spanning devices is a permutation
    with phases, and every dense pulse acts on one slot. The dense
    multi-wire classes serve [Gate.Custom] matrices built through the OCaml
    API.

    Classification uses exact (zero-tolerance) structure tests on the
    matrix entries, so a near-diagonal or near-monomial matrix can never be
    misclassified, and every class performs the same floating-point
    products as the generic path (terms that are exactly zero excepted) —
    results agree with {!State.apply} to the last bit in practice.

    Kernels are immutable and safe to share read-only across domains;
    [apply_block] is safe to call concurrently on distinct blocks. *)

open Waltz_linalg

type t
(** A classified unitary on target wires of a register shape. *)

val compile : dims:int array -> targets:int list -> Mat.t -> t
(** [compile ~dims ~targets m] fixes [m] on the listed wires of a register
    with wire dimensions [dims] (first target most significant). It tests
    [m] for diagonal, then monomial structure, keeps the entries the
    matching apply loop reads (a dense kernel copies [m]) and precomputes
    the application plan. Raises [Invalid_argument] on out-of-range or
    duplicate targets or a dimension mismatch, mirroring [State.apply]. *)

val apply_block : t -> float array -> float array -> cap:int -> live:int -> unit
(** [apply_block t re im ~cap ~live] applies the kernel in lockstep to the
    first [live] lanes of a structure-of-arrays state block: amplitude [idx]
    of lane [k] lives at [idx * cap + k] of the [re]/[im] planes (see
    {!State_block}). Each index pattern is computed once and swept across
    all lanes in a dense inner float loop; per lane the floating-point
    operations and their order are independent of [cap] and [live], so
    every lane's result is bit-identical to a one-lane application. With
    [~cap:1 ~live:1] the planes are exactly a state vector's [re]/[im]
    arrays. The planes must hold at least [n * cap] floats for the [n]
    amplitudes of the register the kernel was compiled for; positions past
    [n * cap] are never touched, so a block may lie over longer planes.
    Raises [Invalid_argument] on shorter planes or [live] outside
    [1, cap]. Whether the planes hold a register of [n] amplitudes is the
    caller's to know: {!State_block.apply_kernel} checks it against
    {!dim_total}. *)

val classes : string list
(** The class catalog in classification order: ["diagonal"],
    ["monomial"], ["single_wire"], ["two_wire"], ["generic"] — stable
    names used by telemetry counters, the resource certificates' dispatch
    mix and the bench dispatch histogram. *)

val class_name : t -> string
(** The kernel's class, one of {!classes}. *)

val class_index : t -> int
(** Position of {!class_name} in {!classes}. *)

val targets : t -> int list
(** The wires the kernel acts on, in compile order. *)

val dim_total : t -> int
(** Amplitude count of the register the kernel was compiled for (the
    product of its [dims]). *)

val dim_targets : t -> int
(** Dimension of the subspace the kernel acts on (the product of its
    targets' [dims]). *)

val footprint_bytes : t -> int
(** Payload bytes of the whole kernel: its phase, permutation or matrix
    entries and its target, offset and iteration tables (OCaml block
    headers excluded). Exact for every class, so the kernel memory the
    executor observes equals the sum its resource certificate computes
    (doc/ANALYSIS.md, RES family). *)
