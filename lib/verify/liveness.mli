(** Commutation-aware liveness over the logical IR.

    A forward fold whose abstract state is the *movable frontier*: the set
    of earlier gates that provably commute with everything between themselves
    and the current program point. When the current gate cancels (or fuses
    with) a frontier member on identical operands, the pair is removable even
    though the peephole {!Waltz_circuit.Optimizer} — which only sees DAG
    neighbours — keeps it. Findings come with machine-applicable fixes, and
    {!simplify_deep} applies {!cancellable_pairs} between peephole rounds.

    Rules: LIVE00 (skipped), LIVE01 (separated cancellable pair), LIVE02
    (identity rotation), LIVE03 (separated fuseable rotation pair). *)

open Waltz_circuit

type event =
  | Cancel of int * int  (** gates i < j compose to the identity *)
  | Fuse of int * int  (** same-axis rotations i < j can merge *)
  | Dead of int  (** gate i is an identity rotation *)

val events : Circuit.t -> event list
(** All findings, in program order of the later gate. *)

val cancellable_pairs : Circuit.t -> (int * int) list
(** Disjoint [Cancel] pairs only — safe to drop simultaneously. *)

val simplify_deep : Circuit.t -> Circuit.t
(** [Optimizer.simplify] to convergence, then repeatedly drops the
    {!cancellable_pairs} and re-simplifies until no more pairs fire. *)

val simplify_deep_with_stats : Circuit.t -> Circuit.t * Optimizer.stats

val check : Circuit.t -> Diagnostic.t list
