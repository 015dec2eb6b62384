(** The five three-qubit-gate circuit families of the paper's evaluation
    (Sec. 6.1), parameterized by qubit count. *)

open Waltz_circuit

val cnu : controls:int -> Circuit.t
(** Generalized Toffoli (CNU): flips a target when all [controls] are |1⟩,
    via a highly parallel binary tree of Toffolis over [controls - 2]
    ancillas (uncomputed afterwards). Total qubits: 2·controls - 1.
    Requires [controls ≥ 2]. *)

val cuccaro : bits:int -> Circuit.t
(** The Cuccaro ripple-carry adder on two [bits]-bit registers: 2·bits + 2
    qubits, nearly fully serialized MAJ/UMA chains of CX and CCX. *)

val qram : address_bits:int -> cells:int -> Circuit.t
(** QRAM-style coherent lookup: a butterfly network of CSWAPs controlled by
    the address register routes the addressed memory cell to position 0,
    a CX copies it onto the bus, and the network is uncomputed. Total
    qubits: address_bits + cells + 1. Requires [cells ≥ 2] and
    [cells ≤ 2^address_bits]. *)

val select :
  index_bits:int -> system:int -> selections:int list -> seed:int -> Circuit.t
(** The Select preparation of QPE: for each index value in [selections],
    applies a pseudo-random Pauli string (drawn from [seed]) to the [system]
    qubits, controlled on the index register holding that value, using a
    Toffoli AND-chain over [index_bits - 1] ancillas. Total qubits:
    2·index_bits - 1 + system. *)

val synthetic : n:int -> gates:int -> cx_fraction:float -> seed:int -> Circuit.t
(** Random circuit with [gates] multi-qubit gates of which a [cx_fraction]
    share are CX and the rest CCX, on uniformly random distinct operands
    (Sec. 6.1's fifth circuit / Fig. 9d). Raises [Invalid_argument] unless
    [0 <= cx_fraction <= 1] (NaN included). *)

val cnu_chain : controls:int -> Circuit.t
(** Serial variant of [cnu]: a linear Toffoli ladder over the same ancilla
    budget — maximally serialized, for depth/coherence contrast with the
    parallel tree. Total qubits: 2·controls - 1. *)

val grover : address_bits:int -> marked:int -> iterations:int -> Circuit.t
(** Grover search over [address_bits] qubits with a phase-flip oracle for
    the [marked] bitstring, both oracle and diffusion built from Toffoli
    AND-chains over [address_bits - 1] ancillas. Total qubits:
    2·address_bits - 1. *)

val bernstein_vazirani : n:int -> secret:int -> Circuit.t
(** The CX-only Bernstein–Vazirani kernel on [n - 1] input qubits and one
    phase qubit — a pure two-qubit-gate workload for contrast studies. *)

type family = Cnu | Cuccaro | Qram | Select

val family_name : family -> string

val all_families : family list

val by_total_qubits : family -> int -> Circuit.t
(** Builds the family instance whose qubit count is largest while not
    exceeding the requested total (≥ 5). The actual count is
    [(by_total_qubits f n).n]. *)
