(** Compilation strategy configurations (Sec. 5.1).

    A strategy combines an encoding mode (where qubits live), a three-qubit
    gate mode (how CCX/CCZ execute) and a CSWAP mode (Sec. 7.1). The named
    values below are the configurations evaluated in the paper's figures. *)

type encoding_mode =
  | Bare  (** qubit-only hardware: one qubit per 2-level device *)
  | Intermediate
      (** lone qubits on 4-level devices; ENC/DEC around each 3-qubit gate *)
  | Packed  (** full-ququart: two qubits per device throughout *)

type three_q_mode =
  | Decompose_to_cx
      (** rewrite three-qubit gates to 1q + CX (target-independent CCZ-based
          decomposition, 6 CX before routing — the paper's qubit-only
          baseline of ≈8 two-qubit gates after routing) *)
  | IToffoli  (** direct three-device iToffoli pulse + CS† correction (Fig. 6d) *)
  | Direct_ccx  (** native CCX pulse in whatever configuration routing yields *)
  | Retarget_ccx
      (** native CCX with Hadamard retargeting into the controls-together
          configuration (Fig. 6b) *)
  | Via_ccz  (** transform CCX to the target-independent CCZ (Fig. 6c) *)

type cswap_mode =
  | Cswap_decompose  (** CSWAP → CX; CCX; CX, then the CCX follows [three_q] *)
  | Cswap_direct  (** native CSWAP pulse, orientation left to routing *)
  | Cswap_oriented
      (** native CSWAP pulse, choreographed so both targets share a ququart *)

type t = {
  name : string;
  encoding : encoding_mode;
  three_q : three_q_mode;
  cswap : cswap_mode;
  disruption_aware_routing : bool;
      (** use the weighted disruption cost when picking SWAPs (Sec. 5.2);
          when false the router takes the first distance-reducing step —
          an ablation knob, on for every named strategy *)
  choreograph_slots : bool;
      (** choose ENC slot assignments and encode-pair roles to hit the
          cheapest pulse configuration (Sec. 5.1.2); ablation knob *)
}

val qubit_only : t
(** Black line of Fig. 7/9: decompose everything to one- and two-qubit
    gates. *)

val qubit_itoffoli : t
(** Red line: qubit-only with the direct iToffoli pulse. *)

val mixed_radix_basic : t
(** Pink line: intermediate encoding, CCX in routed configuration. *)

val mixed_radix_retarget : t
(** Light-blue line: intermediate encoding with Hadamard-corrected CCX. *)

val mixed_radix_ccz : t
(** Green line: intermediate encoding via CCZ. *)

val full_ququart : t
(** Grey line: packed encoding via CCZ. *)

val mixed_radix_cswap : t
(** Fig. 9a: intermediate encoding with direct, favourably oriented
    CSWAPs. *)

val full_ququart_cswap : t
(** Fig. 9a "basic": packed with direct CSWAPs, no orientation effort. *)

val full_ququart_cswap_oriented : t
(** Fig. 9a "targets together": packed with orientation-aware CSWAPs. *)

val fig7_set : t list
(** The six strategies compared in Fig. 7, qubit-only first. *)

val all : t list
(** The nine named strategies: {!fig7_set}, then the three Fig. 9a CSWAP
    configurations. *)

val ablate : ?disruption:bool -> ?choreography:bool -> t -> t
(** Returns a copy with the given ablation switches (name annotated). *)

val uses_ququarts : t -> bool

val pp : Format.formatter -> t -> unit
