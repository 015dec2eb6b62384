open Waltz_linalg
open Waltz_qudit
open Waltz_sim
open Test_util

(* Reference implementation: full-matrix application via Embed. *)
let apply_reference dims targets gate state_vec =
  let full = Embed.on_wires ~dims ~targets gate in
  Mat.apply full state_vec

let test_apply_matches_reference () =
  let dims = [| 2; 4; 2 |] in
  let r = rng 11 in
  let state = State.random r ~dims in
  let reference = Vec.copy (State.amplitudes state) in
  (* Apply CX^{q0} on wires (0 qubit, 1 ququart): an 8x8 gate. *)
  let gate = Ququart_gates.mr_2q Gates.cx ~first:Ququart_gates.Qubit ~second:(Slot 0) in
  State.apply state ~targets:[ 0; 1 ] gate;
  let expected = apply_reference dims [ 0; 1 ] gate reference in
  close ~tol:1e-12 "apply matches reference" 1. (Vec.overlap2 expected (State.amplitudes state));
  (* Now a single-wire gate on the last qubit. *)
  let reference = Vec.copy (State.amplitudes state) in
  State.apply state ~targets:[ 2 ] Gates.h;
  let expected = apply_reference dims [ 2 ] Gates.h reference in
  close ~tol:1e-12 "1q apply matches" 1. (Vec.overlap2 expected (State.amplitudes state))

let test_apply_reordered_targets () =
  let dims = [| 2; 2 |] in
  let state = State.of_vec ~dims (Vec.basis 4 1) in
  (* CX with control = wire 1, target = wire 0. *)
  State.apply state ~targets:[ 1; 0 ] Gates.cx;
  close "reversed CX |01> -> |11>" 1. (State.basis_probability state 3)

let test_norm_preservation () =
  let r = rng 13 in
  let dims = [| 4; 4 |] in
  let state = State.random r ~dims in
  for _ = 1 to 10 do
    State.apply state ~targets:[ 0; 1 ] (Encoding.enc ~incoming_slot:0);
    State.apply state ~targets:[ Rng.int r 2 ] (Qudit_ops.x_plus ~d:4 1)
  done;
  close ~tol:1e-9 "norm preserved" 1. (Vec.norm (State.amplitudes state))

(* One damping step on a one-lane block, the scalar case of the step. *)
let damp_one rng ~dims ~lambdas v =
  let blk = State_block.create ~dims ~cap:1 in
  State_block.write_lane blk 0 v;
  ignore
    (State_block.damp_with blk [| rng |] ~wire:0 ~lambdas
       ~scales:(State_block.damp_scales lambdas));
  State_block.read_lane blk 0

let test_damp_no_noise () =
  let r = rng 17 in
  let before = State.amplitudes (State.random r ~dims:[| 4 |]) in
  let after = damp_one r ~dims:[| 4 |] ~lambdas:[| 0.; 0.; 0.; 0. |] before in
  close ~tol:1e-12 "zero lambdas is a no-op" 1. (Vec.overlap2 before after)

let test_damp_full_decay () =
  let r = rng 19 in
  (* Fully excited level 3: λ_3 = 1 forces the jump to |0⟩. *)
  let after = damp_one r ~dims:[| 4 |] ~lambdas:[| 0.; 0.; 0.; 1. |] (Vec.basis 4 3) in
  close "decayed to ground" 1. (Vec.overlap2 (Vec.basis 4 0) after)

let test_damp_statistics () =
  let jumps = ref 0 in
  let trials = 2000 in
  let r = rng 23 in
  let lambda = 0.3 in
  for _ = 1 to trials do
    let after = damp_one r ~dims:[| 2 |] ~lambdas:[| 0.; lambda |] (Vec.basis 2 1) in
    if Vec.overlap2 (Vec.basis 2 0) after > 0.5 then incr jumps
  done;
  close ~tol:0.03 "jump rate matches lambda" lambda (float_of_int !jumps /. float_of_int trials)

let test_random_supported () =
  let r = rng 29 in
  let state = State.random_supported r ~dims:[| 4; 4 |] ~allowed:[| [ 0; 1 ]; [ 0 ] |] in
  close ~tol:1e-12 "normalized" 1. (Vec.norm (State.amplitudes state));
  (* Support only on indices 0 and 4. *)
  let total_support = State.basis_probability state 0 +. State.basis_probability state 4 in
  close ~tol:1e-12 "support restricted" 1. total_support

let prop_unitary_preserves_norm =
  qcheck ~count:25 "random Pauli applications preserve norm" QCheck.(int_range 0 9999)
    (fun seed ->
      let r = rng seed in
      let dims = [| 2; 4; 4 |] in
      let state = State.random r ~dims in
      for _ = 1 to 5 do
        let wire = Rng.int r 3 in
        let d = dims.(wire) in
        let set = Waltz_noise.Noise.pauli_set ~d in
        State.apply state ~targets:[ wire ] set.(Rng.int r (Array.length set))
      done;
      Float.abs (Vec.norm (State.amplitudes state) -. 1.) < 1e-9)

let suite =
  [ case "apply matches reference" test_apply_matches_reference;
    case "apply reordered targets" test_apply_reordered_targets;
    case "norm preservation" test_norm_preservation;
    case "damp no noise" test_damp_no_noise;
    case "damp full decay" test_damp_full_decay;
    case "damp statistics" test_damp_statistics;
    case "random supported" test_random_supported;
    prop_unitary_preserves_norm ]
