(** Expected-probability-of-success estimators (Sec. 6.3): analytic fidelity
    proxies that need no state-vector simulation, so they scale to the
    paper's full 5–21 qubit range (Fig. 8). Each estimator raises
    [Invalid_argument] on a model that {!Waltz_noise.Noise.check}
    refuses. *)

type breakdown = {
  gate_eps : float;  (** product of per-pulse success probabilities *)
  coherence_eps : float;
      (** product over devices of exp(−t/T1(k)) over occupancy segments,
          where k is the highest occupied level (|1⟩ lone, |3⟩ encoded) *)
  total_eps : float;  (** product of the two *)
  duration_ns : float;
}

val estimate : ?model:Waltz_noise.Noise.model -> Physical.t -> breakdown
(** The model's [ww_error_scale] multiplies the error of ququart-touching
    pulses and [t1_high_scale] shortens the T1 of levels ≥ 2, mirroring the
    Fig. 9b/9c sensitivity knobs. *)

type label_report = {
  op_label : string;
  count : int;
  total_ns : float;  (** summed pulse time under this label *)
  error_budget : float;  (** summed per-pulse error probability 1 − success *)
}

val label_breakdown : ?model:Waltz_noise.Noise.model -> Physical.t -> label_report list
(** Per-op-label cost accounting — the Qompress-style communication-vs-gate
    split: SWAP labels are routing overhead, ENC/ENCdg are encode-decode
    choreography, the rest are logical pulses. Sorted by total pulse time
    (descending, then label). *)

type device_report = {
  device : int;
  busy_ns : float;  (** time under pulses *)
  idle_ns : float;  (** exact accumulated idle *)
  encoded_ns : float;  (** time holding two qubits (levels up to |3⟩) *)
  survival : float;  (** this device's coherence EPS factor *)
}

val device_breakdown : ?model:Waltz_noise.Noise.model -> Physical.t -> device_report list
(** Per-device timeline decomposition of the coherence EPS — the tooling
    view behind Fig. 8's middle panel. Devices ordered by index. *)
