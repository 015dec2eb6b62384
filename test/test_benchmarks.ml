open Waltz_linalg
open Waltz_circuit
open Waltz_benchmarks.Bench_circuits
open Test_util

(* Apply a circuit to a computational basis state and return the resulting
   basis index (valid only for classical/permutation circuits). *)
let classical_output circuit input_index =
  let u = Circuit.to_unitary circuit in
  let v = Mat.apply u (Vec.basis (1 lsl circuit.Circuit.n) input_index) in
  let best = ref 0 and best_p = ref 0. in
  for k = 0 to Vec.dim v - 1 do
    let p = Cplx.norm2 (Vec.get v k) in
    if p > !best_p then begin
      best_p := p;
      best := k
    end
  done;
  if !best_p < 0.999 then Alcotest.failf "output not classical (p = %f)" !best_p;
  !best

let bit idx pos_from_msb n = (idx lsr (n - 1 - pos_from_msb)) land 1

let test_cnu_two_controls () =
  let c = cnu ~controls:2 in
  check_int "3 qubits" 3 c.Circuit.n;
  mat_equal "CNU(2) = CCX" Waltz_qudit.Gates.ccx (Circuit.to_unitary c)

let test_cnu_three_controls () =
  let c = cnu ~controls:3 in
  check_int "5 qubits" 5 c.Circuit.n;
  (* Check all 8 control settings: target (last qubit) flips iff all controls
     are 1; ancillas return to 0. *)
  for controls = 0 to 7 do
    let input = controls lsl 2 in
    (* controls at qubits 0,1,2 (msb side), ancilla 3, target 4 *)
    let out = classical_output c input in
    let expected_target = if controls = 7 then 1 else 0 in
    check_int
      (Printf.sprintf "target for controls=%d" controls)
      expected_target
      (bit out 4 5);
    check_int "ancilla restored" 0 (bit out 3 5);
    check_int "controls preserved" controls (out lsr 2)
  done

let test_cuccaro_addition () =
  (* 2-bit adder: 6 qubits [c0; b0; a0; b1; a1; z]. *)
  let c = cuccaro ~bits:2 in
  check_int "6 qubits" 6 c.Circuit.n;
  for a = 0 to 3 do
    for b = 0 to 3 do
      (* Build the input index: qubit order is c0, b0, a0, b1, a1, z with
         qubit 0 most significant. *)
      let bits = [| 0; b land 1; a land 1; (b lsr 1) land 1; (a lsr 1) land 1; 0 |] in
      let input = Array.fold_left (fun acc bv -> (acc lsl 1) lor bv) 0 bits in
      let out = classical_output c input in
      let b0' = bit out 1 6 and a0' = bit out 2 6 in
      let b1' = bit out 3 6 and a1' = bit out 4 6 in
      let z' = bit out 5 6 in
      let sum = a + b in
      let b_result = b0' lor (b1' lsl 1) in
      check_int (Printf.sprintf "sum %d+%d" a b) (sum land 3) b_result;
      check_int "carry out" ((sum lsr 2) land 1) z';
      check_int "a preserved" a (a0' lor (a1' lsl 1))
    done
  done

let test_qram_lookup () =
  (* 2 address bits, 4 cells, bus: 7 qubits. *)
  let c = qram ~address_bits:2 ~cells:4 in
  check_int "7 qubits" 7 c.Circuit.n;
  (* Memory contents: cell j holds bit (j = 2). Address a should fetch
     mem[a]. Qubits: addr0, addr1, mem0..mem3, bus. Address bit i of the
     circuit corresponds to bit i of the cell index (addr0 = lsb). *)
  for a = 0 to 3 do
    let mem_pattern j = if j = 2 then 1 else 0 in
    let bits =
      [| a land 1; (a lsr 1) land 1; mem_pattern 0; mem_pattern 1; mem_pattern 2;
         mem_pattern 3; 0 |]
    in
    let input = Array.fold_left (fun acc bv -> (acc lsl 1) lor bv) 0 bits in
    let out = classical_output c input in
    check_int (Printf.sprintf "bus for addr %d" a) (mem_pattern a) (bit out 6 7);
    (* Memory restored. *)
    for j = 0 to 3 do
      check_int "memory restored" (mem_pattern j) (bit out (2 + j) 7)
    done
  done

let test_cuccaro_three_bits () =
  (* 3-bit adder: 8 qubits; spot-check a spread of additions. *)
  let c = cuccaro ~bits:3 in
  check_int "8 qubits" 8 c.Circuit.n;
  List.iter
    (fun (a, b) ->
      let bits =
        [| 0; b land 1; a land 1; (b lsr 1) land 1; (a lsr 1) land 1; (b lsr 2) land 1;
           (a lsr 2) land 1; 0 |]
      in
      let input = Array.fold_left (fun acc bv -> (acc lsl 1) lor bv) 0 bits in
      let out = classical_output c input in
      let sum = a + b in
      let b_result = bit out 1 8 lor (bit out 3 8 lsl 1) lor (bit out 5 8 lsl 2) in
      check_int (Printf.sprintf "3-bit sum %d+%d" a b) (sum land 7) b_result;
      check_int "3-bit carry" ((sum lsr 3) land 1) (bit out 7 8))
    [ (0, 0); (1, 7); (5, 3); (7, 7); (4, 4); (6, 1) ]

let test_qram_truncated_cells () =
  (* cells < 2^address_bits: the butterfly is truncated but lookups of the
     existing cells still work. *)
  let c = qram ~address_bits:2 ~cells:3 in
  check_int "6 qubits" 6 c.Circuit.n;
  for a = 0 to 2 do
    let mem_pattern j = if j = 1 then 1 else 0 in
    let bits =
      [| a land 1; (a lsr 1) land 1; mem_pattern 0; mem_pattern 1; mem_pattern 2; 0 |]
    in
    let input = Array.fold_left (fun acc bv -> (acc lsl 1) lor bv) 0 bits in
    let out = classical_output c input in
    check_int (Printf.sprintf "truncated qram addr %d" a) (mem_pattern a) (bit out 5 6)
  done

let test_select_three_index_bits () =
  let c = select ~index_bits:3 ~system:2 ~selections:[ 2; 5 ] ~seed:11 in
  check_int "qubits" 7 c.Circuit.n;
  let _, _, three = Circuit.count_by_arity c in
  (* Two AND-chain Toffolis per selection, computed and uncomputed. *)
  check_int "toffoli count" 8 three;
  (* Unselected index leaves everything classical and unchanged. *)
  check_int "inert" 0 (classical_output c 0)

let test_select_structure () =
  let c = select ~index_bits:2 ~system:2 ~selections:[ 1; 3 ] ~seed:5 in
  check_int "qubits" 5 c.Circuit.n;
  let _, _, three = Circuit.count_by_arity c in
  (* One AND Toffoli per selection, computed and uncomputed. *)
  check_int "toffoli count" 4 three;
  assert_unitary "select unitary" (Circuit.to_unitary c)

let test_select_is_controlled () =
  (* With index ≠ any selection the system qubits are untouched. *)
  let c = select ~index_bits:2 ~system:1 ~selections:[ 3 ] ~seed:9 in
  (* Qubits: idx0, idx1, anc, sys. Index value 0: nothing happens. *)
  let out = classical_output c 0 in
  check_int "inert for unselected index" 0 out

let test_synthetic () =
  let c = synthetic ~n:8 ~gates:40 ~cx_fraction:0.5 ~seed:3 in
  let _, two, three = Circuit.count_by_arity c in
  check_int "40 gates" 40 (two + three);
  check_bool "mix of both" true (two > 5 && three > 5);
  let all_cx = synthetic ~n:8 ~gates:20 ~cx_fraction:1. ~seed:3 in
  let _, two, three = Circuit.count_by_arity all_cx in
  check_int "all CX" 20 two;
  check_int "no CCX" 0 three

let test_synthetic_rejects_bad_fraction () =
  List.iter
    (fun cx_fraction ->
      match synthetic ~n:5 ~gates:20 ~cx_fraction ~seed:42 with
      | _ -> Alcotest.failf "cx_fraction %g accepted" cx_fraction
      | exception Invalid_argument _ -> ())
    [ Float.nan; -0.1; 1.5; Float.infinity ]

(* The generators are linear in their gate count: 200,000 synthetic gates
   take well under the bound; a quadratic path would take minutes. *)
let test_linear_generator () =
  let gates = 200_000 in
  let t0 = Unix.gettimeofday () in
  let c = synthetic ~n:8 ~gates ~cx_fraction:0.5 ~seed:11 in
  let dt = Unix.gettimeofday () -. t0 in
  check_int "gate count" gates (Circuit.gate_count c);
  check_bool (Printf.sprintf "%d synthetic gates built in %.3f s" gates dt) true (dt < 5.)

let test_by_total_qubits () =
  List.iter
    (fun family ->
      List.iter
        (fun n ->
          let c = by_total_qubits family n in
          check_bool
            (Printf.sprintf "%s(%d) fits" (family_name family) n)
            true
            (c.Circuit.n <= n && c.Circuit.n >= 3))
        [ 5; 7; 9; 11; 13; 17; 21 ])
    all_families

let suite =
  [ case "cnu 2 controls" test_cnu_two_controls;
    case "cnu 3 controls" test_cnu_three_controls;
    case "cuccaro addition" test_cuccaro_addition;
    case "qram lookup" test_qram_lookup;
    case "cuccaro 3 bits" test_cuccaro_three_bits;
    case "qram truncated cells" test_qram_truncated_cells;
    case "select 3 index bits" test_select_three_index_bits;
    case "select structure" test_select_structure;
    case "select controlled" test_select_is_controlled;
    case "synthetic" test_synthetic;
    case "synthetic rejects a bad cx_fraction" test_synthetic_rejects_bad_fraction;
    case "200,000 synthetic gates built in linear time" test_linear_generator;
    case "by total qubits" test_by_total_qubits ]
