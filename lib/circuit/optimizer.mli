(** Peephole circuit optimization.

    Passes operate on the logical IR before compilation: cancelling an
    adjacent CCX pair saves two full ENC/pulse/DEC brackets downstream, so
    running [simplify] first is almost always worth it.

    Rules (applied to convergence):
    - adjacent self-inverse pairs on identical operands cancel
      (X, Y, Z, H, CX, CZ, SWAP, CCX, CCZ, CSWAP);
    - adjacent inverse pairs cancel (S·S†, T·T†, and rotations with opposite
      angles);
    - consecutive rotations of the same axis on the same qubit fuse, and
      rotations by ≈0 (mod 2π) are dropped.

    "Adjacent" means no intervening gate touches any shared qubit, tracked
    on the circuit DAG rather than the flat list. Cancellations across
    commuting gates are [Waltz_verify.Liveness.simplify_deep]'s job. *)

val simplify : Circuit.t -> Circuit.t

type stats = { removed : int; fused : int }

val simplify_with_stats : Circuit.t -> Circuit.t * stats

(** {1 Exposed peephole predicates (shared with the liveness analysis)} *)

val cancels : Gate.kind -> Gate.kind -> bool
(** Do two gates on identical operands compose to the identity? *)

val fuse : Gate.kind -> Gate.kind -> Gate.kind option
(** Merge two same-axis rotations on identical operands into one kind. *)

val is_identity_rotation : Gate.kind -> bool
