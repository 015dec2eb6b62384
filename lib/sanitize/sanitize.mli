(** Dynamic concurrency sanitizer for the Waltz Domain runtime.

    A process-wide recorder behind one enable flag, mirroring the telemetry
    pattern: with the sanitizer off, every shim entry point is a single
    branch on an [Atomic.t] and performs no allocation, so instrumented hot
    paths cost nothing in production. With it on, the shims feed a
    vector-clock happens-before race detector, an Eraser-style lockset
    checker, a lock-order (deadlock) graph and a per-domain arena ownership
    checker, all serialized under one internal mutex.

    Instrumentation protocol (soundness depends on it):
    - {!Lock.acquire} is called {e after} [Mutex.lock] returns and
      {!Lock.release} {e before} [Mutex.unlock], so for any one lock the
      recorder sees handoffs in real acquisition order.
    - [Condition.wait] is bracketed as [release; wait; acquire] — the wait
      atomically releases and reacquires the real mutex.
    - {!Shared.read}/{!Shared.write} are placed next to the access they
      model, inside the same critical section when the access is guarded.

    Findings are plain records tagged with RACE/LOCK/OWN rule ids from the
    [Waltz_verify.Rules] catalog; the [Waltz_sanitize_report] library turns
    them into diagnostics, SARIF and telemetry counters. This module has no
    dependencies so every layer of the tree can call it. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorder state: clocks, locksets, lock-order edges, findings
    and counters; the detection mode returns to [Both]. The enable flag is
    left as-is. *)

type mode = Happens_before | Lockset | Both

val set_mode : mode -> unit
(** [Happens_before] is the precise mode: RACE01 only, no false positives
    on fork/join handoffs. [Lockset] is the Eraser mode: RACE02 only — the
    weaker but schedule-independent claim that no consistent lock protects
    a location. [Both] (the default) runs the two side by side, with
    ownership recycling taming lockset reports on handoffs that
    happens-before proves ordered. *)

val mode : unit -> mode

module Tid : sig
  val current : unit -> int
  (** The calling thread's dense id: domains are numbered in order of first
      shim call; a virtual override (below) wins when set. Returns [-1] with
      the sanitizer disabled. *)

  val with_virtual : int -> (unit -> 'a) -> 'a
  (** [with_virtual k f] runs [f] with the calling domain impersonating
      virtual thread [k]. Virtual ids live in their own namespace (they
      never collide with real domain ids), letting unit tests and seeded
      fixtures drive multi-thread interleavings deterministically from one
      domain. Nesting restores the previous override. *)
end

module Lock : sig
  val acquire : string -> unit
  (** Record that the calling thread acquired the lock named [s]: the
      thread's clock absorbs the lock's clock (happens-before), the lock is
      pushed on the thread's held stack, and a lock-order edge is added from
      every lock already held. Acquiring a lock already held by the same
      thread is a LOCK02 finding. *)

  val release : string -> unit
  (** Record the release: the lock's clock becomes the thread's clock and
      the thread's clock ticks. Releasing a lock the thread does not hold is
      a LOCK02 finding. *)

  val release_seen : string -> unit
  (** {!release} for a lock whose critical sections can begin before
      {!enable} or {!reset}, like the pool mutex that idle workers cycle
      through between jobs. Pops the lock if the recorder saw the thread
      take it; if it did not, the release is no LOCK02 finding. Either way
      its happens-before handoff is recorded, so the next holder is
      ordered after the section. *)
end

module Shared : sig
  val read : string -> unit
  (** [read site] records a read of the shared location [site]. A read
      racing a prior write (no happens-before edge) is a RACE01 finding;
      the lockset discipline is checked on every access (RACE02). *)

  val write : string -> unit
  (** Like {!read} for a write; also races against prior reads. *)

  val read_idx : string -> int -> unit
  (** [read_idx site i] distinguishes element [i] of an array site. A
      separate non-optional entry point so hot loops pay no [Some] boxing
      when the sanitizer is off. *)

  val write_idx : string -> int -> unit
end

module Domains : sig
  type token
  (** A fork/join edge between a parent and one spawned domain. *)

  val fork : unit -> token
  (** Called in the parent just before [Domain.spawn]: snapshots the
      parent's clock (the child will start after everything the parent did)
      and ticks the parent. Cheap dummy token when disabled. *)

  val spawned : token -> unit
  (** Called first thing inside the spawned domain: the child's clock
      absorbs the fork snapshot. *)

  val join : token -> unit
  (** Called in the parent after [Domain.join]: the parent's clock absorbs
      the child's final clock. No-op for a token forked while disabled. *)
end

module Arena : sig
  type token
  (** An ownership witness for a per-domain arena (scratch buffers,
      trajectory workspaces). *)

  val create : string -> token
  (** [create name] binds the arena to the calling thread. When created
      with the sanitizer disabled the token is unowned and {!touch} never
      reports — arenas outlive enable/disable windows. *)

  val touch : token -> unit
  (** Record an access: an owned arena touched by any other thread is an
      OWN01 finding. *)
end

type finding = {
  rule : string;  (** RACE01, RACE02, LOCK01, LOCK02 or OWN01 *)
  site : string;  (** location / lock / arena the finding anchors to *)
  message : string;
  anchors : string list;
      (** acquisition-stack anchors: the locks held (outermost first) at the
          accesses or acquisitions that witnessed the finding *)
}

val findings : unit -> finding list
(** All findings so far, oldest first, deduplicated per (rule, site). Runs
    lock-order cycle detection over the accumulated acquisition graph before
    returning, so LOCK01 findings appear here without a separate call. *)

type stats = {
  accesses : int;  (** shim-recorded shared accesses while enabled *)
  locks_tracked : int;
  sites_tracked : int;
  reports : int;  (** findings recorded (post-dedup) *)
}

val stats : unit -> stats
