open Waltz_linalg
open Waltz_circuit
open Test_util

let g = Gate.make

let test_cancel_self_inverse () =
  let c =
    Circuit.of_gates ~n:3
      [ g Gate.H [ 0 ]; g Gate.H [ 0 ]; g Gate.Ccx [ 0; 1; 2 ]; g Gate.Ccx [ 0; 1; 2 ] ]
  in
  let out = Optimizer.simplify c in
  check_int "everything cancels" 0 (Circuit.gate_count out)

let test_no_cancel_across_blockers () =
  (* An intervening gate on a shared qubit blocks cancellation. *)
  let c =
    Circuit.of_gates ~n:2 [ g Gate.H [ 0 ]; g Gate.Cx [ 0; 1 ]; g Gate.H [ 0 ] ]
  in
  let out = Optimizer.simplify c in
  check_int "nothing cancels" 3 (Circuit.gate_count out)

let test_cancel_past_disjoint_gates () =
  (* A gate on unrelated qubits does not block cancellation. *)
  let c =
    Circuit.of_gates ~n:3 [ g Gate.H [ 0 ]; g Gate.X [ 2 ]; g Gate.H [ 0 ] ]
  in
  let out = Optimizer.simplify c in
  check_int "H pair cancels around X" 1 (Circuit.gate_count out);
  check_bool "X remains" true
    (List.exists (fun gt -> gt.Gate.kind = Gate.X) out.Circuit.gates)

let test_inverse_pairs () =
  let c =
    Circuit.of_gates ~n:1
      [ g Gate.S [ 0 ]; g Gate.Sdg [ 0 ]; g (Gate.Rz 0.7) [ 0 ]; g (Gate.Rz (-0.7)) [ 0 ] ]
  in
  check_int "inverse pairs cancel" 0 (Circuit.gate_count (Optimizer.simplify c))

let test_rotation_fusion () =
  let c =
    Circuit.of_gates ~n:1
      [ g (Gate.Rz 0.3) [ 0 ]; g (Gate.Rz 0.4) [ 0 ]; g (Gate.Rx 0.1) [ 0 ] ]
  in
  let out, stats = Optimizer.simplify_with_stats c in
  check_int "fused to two gates" 2 (Circuit.gate_count out);
  check_int "one fusion" 1 stats.Optimizer.fused;
  match out.Circuit.gates with
  | [ { Gate.kind = Gate.Rz theta; _ }; _ ] -> close ~tol:1e-12 "angle sum" 0.7 theta
  | _ -> Alcotest.fail "unexpected structure"

(* Two finite angles whose sum overflows to infinity still merge into one
   finite rotation, equal to the pair up to global phase. *)
let test_fusion_past_max_float () =
  let c = Circuit.of_gates ~n:1 [ g (Gate.Rz 1e308) [ 0 ]; g (Gate.Rz 1e308) [ 0 ] ] in
  let out = Optimizer.simplify c in
  (match out.Circuit.gates with
  | [ { Gate.kind = Gate.Rz theta; _ } ] ->
    check_bool "merged angle is finite" true (Float.is_finite theta)
  | _ -> Alcotest.fail "expected one Rz");
  mat_equal_phase "merge preserves the pair's unitary" (Circuit.to_unitary c)
    (Circuit.to_unitary out)

let test_s_s_becomes_z () =
  let c = Circuit.of_gates ~n:1 [ g Gate.S [ 0 ]; g Gate.S [ 0 ] ] in
  match (Optimizer.simplify c).Circuit.gates with
  | [ { Gate.kind = Gate.Z; _ } ] -> ()
  | _ -> Alcotest.fail "S·S should fuse to Z"

let test_drop_zero_rotation () =
  let c = Circuit.of_gates ~n:1 [ g (Gate.Rz 0.) [ 0 ]; g Gate.H [ 0 ] ] in
  check_int "identity rotation dropped" 1 (Circuit.gate_count (Optimizer.simplify c))

let test_semantics_preserved () =
  let cases =
    List.init 8 (fun seed ->
        Waltz_benchmarks.Bench_circuits.synthetic ~n:4 ~gates:10 ~cx_fraction:0.5 ~seed)
  in
  List.iter
    (fun c ->
      (* Interleave some single-qubit gates that can fuse or cancel. *)
      let extra =
        Circuit.of_gates ~n:4
          [ g Gate.T [ 0 ]; g Gate.T [ 0 ]; g Gate.H [ 1 ]; g Gate.H [ 1 ];
            g (Gate.Rz 0.5) [ 2 ]; g (Gate.Rz (-0.5)) [ 2 ] ]
      in
      let full = Circuit.append extra c in
      let simplified = Optimizer.simplify full in
      check_bool "no growth" true (Circuit.gate_count simplified <= Circuit.gate_count full);
      mat_equal_phase "optimizer preserves semantics" (Circuit.to_unitary full)
        (Circuit.to_unitary simplified))
    cases

let prop_idempotent =
  qcheck ~count:20 "simplify is idempotent" QCheck.(int_range 0 5000) (fun seed ->
      let c = Waltz_benchmarks.Bench_circuits.synthetic ~n:5 ~gates:14 ~cx_fraction:0.6 ~seed in
      let once = Optimizer.simplify c in
      let twice = Optimizer.simplify once in
      Circuit.gate_count once = Circuit.gate_count twice)

let suite =
  [ case "cancel self inverse" test_cancel_self_inverse;
    case "blocked by shared qubit" test_no_cancel_across_blockers;
    case "cancel past disjoint gates" test_cancel_past_disjoint_gates;
    case "inverse pairs" test_inverse_pairs;
    case "rotation fusion" test_rotation_fusion;
    case "rotation fusion past max_float" test_fusion_past_max_float;
    case "S.S = Z" test_s_s_becomes_z;
    case "drop zero rotation" test_drop_zero_rotation;
    case "semantics preserved" test_semantics_preserved;
    prop_idempotent ]

let _ = Mat.equal
