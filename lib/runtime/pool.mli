(** A reusable [Domain]-based worker pool with deterministic fan-out.

    Work items are identified by their index in [0, n); each item is computed
    by exactly one domain and its result is stored at its own slot, so the
    result array — and any sequential fold over it — is independent of how
    many domains participated or how the items were interleaved. This is what
    lets the trajectory executor promise bit-identical statistics for every
    [WALTZ_DOMAINS] setting.

    Items are claimed one at a time from an atomic counter (self-scheduling),
    which balances uneven item costs without any work-stealing machinery.

    A pool is not reentrant: one [map_array]/[map_reduce] runs at a time per
    pool. Submitting from inside a running job raises [Invalid_argument]. *)

type t

val default_domains : unit -> int
(** The domain budget implied by the environment: [WALTZ_DOMAINS] when set to
    a positive integer, otherwise [Domain.recommended_domain_count ()]. The
    env value is capped at the hardware's recommended count (and at 64) —
    oversubscribing cores only adds scheduling overhead, and determinism
    makes the setting observationally equivalent. [1] means "run everything
    in the calling domain" — the exact legacy sequential path. Explicit
    [?domains] arguments elsewhere in this module are *not* capped. *)

val create : ?workers:int -> unit -> t
(** Spawns [workers] worker domains (default [default_domains () - 1]; the
    caller is always the extra participant). [?workers:0] is a valid pool
    that runs every job sequentially in the caller. *)

val size : t -> int
(** Workers plus the calling domain — the maximum parallelism of a job. *)

val shutdown : t -> unit
(** Joins all worker domains. Idempotent; the pool must be idle. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool of [domains - 1]
    workers and shuts it down afterwards (also on exceptions). *)

val map_array : ?domains:int -> t -> n:int -> f:(int -> 'a) -> 'a array
(** [map_array pool ~n ~f] is [[| f 0; …; f (n-1) |]], computed by up to
    [min domains (size pool)] domains ([domains] defaults to [size pool]).
    If [f] raises, the first exception (in claim order) is re-raised in the
    caller after all participants have drained. *)

val map_reduce :
  ?domains:int -> t -> n:int -> map:(int -> 'a) -> fold:('b -> 'a -> 'b) -> init:'b -> 'b
(** Deterministic fan-out then an in-order sequential fold:
    [fold (… (fold init (map 0)) …) (map (n-1))]. The fold runs entirely in
    the caller, so non-associative operations (floating-point sums) give the
    same result at every domain count. *)

val run : ?domains:int -> n:int -> (int -> 'a) -> 'a array
(** One-shot convenience: [with_pool ~domains (map_array ~n ~f)]. With
    [domains <= 1] no domain is ever spawned. *)

val shared : ?domains:int -> unit -> t
(** The process-wide pool, created on first use and grown (never shrunk) to
    satisfy the largest [domains] seen. Callers that map repeatedly — the
    trajectory executor above all — use this to amortize domain spawning;
    idle workers sleep on a condition variable and do not block process
    exit. Combine with [map_array ~domains] to bound a single job below the
    pool's size.

    The pool is published through an [Atomic.t]: the common path is one
    lock-free load, and growth is double-checked under a mutex so two
    concurrent first callers (or growers) cannot both install a pool. *)
