(** The Quantum Waltz compilation pipeline (Sec. 5): decompose → map →
    route → choreograph three-qubit gates → schedule. *)

open Waltz_circuit
open Waltz_arch

val device_count : Strategy.t -> int -> int
(** Physical devices needed for [n] logical qubits: [n] for bare and
    intermediate encodings, ⌈n/2⌉ for full-ququart packing. *)

val compile : ?topology:Topology.t -> Strategy.t -> Circuit.t -> Physical.t
(** Compiles a logical circuit for the given strategy. The default topology
    is the paper's 2D mesh sized by [device_count]. Raises [Failure] when
    routing cannot make progress (pathological topologies only). Checks are
    separate calls on the result: [Waltz_verify.Verify.run] and
    [Waltz_analysis.Resource.certify].

    Compilations go through an MRU program cache keyed by (circuit,
    strategy, topology) and bounded by {!program_cache_budget}: a hit
    returns the previously compiled program itself, which is safe to share
    because programs are immutable, and with it the executor's kernel
    memo. Disable with {!set_program_cache}; hit/miss counts surface as
    [compile.program_cache.hit]/[.miss]. *)

val compile_all :
  ?topology:Topology.t ->
  ?domains:int ->
  (Strategy.t * Circuit.t) list ->
  Physical.t list
(** Compiles a portfolio of independent (strategy, circuit) jobs over the
    shared domain pool (see [Waltz_runtime.Pool.shared]), returning results
    in input order. Each job runs exactly [compile ?topology], so the
    result list is element-for-element identical to a serial [List.map] —
    at every [WALTZ_DOMAINS] setting. [?domains] bounds the fan-out below
    the pool's size. *)

val set_program_cache : bool -> unit
(** Enables/disables the compiled-program cache at runtime (initial state:
    enabled). *)

val program_cache_clear : unit -> unit
(** Empties the compiled-program cache (e.g. between benchmark phases that
    must measure fresh compilations). *)

val program_cache_budget : int
(** The ops the compiled-program cache may hold (4096). An insert evicts
    least-recently-used programs until the held ops fit, but always keeps
    the newest program, so one over the budget is still reused on an
    immediate repeat; a program counts as at least one op. The resource
    certificates' worst-case cache residency (RES03) holds
    [max 1 (budget / ops)] copies of a program. *)

val program_cache_held : unit -> int list
(** The ops of each program the cache holds, most recently used first. *)
