(* Tests for the extension features: new benchmark circuits (Grover, serial
   CNU, Bernstein–Vazirani), four-qubit full-ququart gates, and strategy
   ablation knobs. *)

open Waltz_linalg
open Waltz_circuit
open Waltz_qudit
open Waltz_benchmarks.Bench_circuits
open Waltz_core
open Test_util

let g = Gate.make

let test_cnu_chain_semantics () =
  (* The serial ladder computes the same function as the parallel tree. *)
  let tree = cnu ~controls:3 and chain = cnu_chain ~controls:3 in
  check_int "same width" tree.Circuit.n chain.Circuit.n;
  mat_equal_phase "chain = tree" (Circuit.to_unitary tree) (Circuit.to_unitary chain);
  check_bool "chain is deeper" true (Circuit.depth chain >= Circuit.depth tree)

let test_grover_amplifies () =
  (* Two iterations on 3 address bits should concentrate probability on the
     marked string. *)
  let marked = 5 in
  let c = grover ~address_bits:3 ~marked ~iterations:2 in
  let u = Circuit.to_unitary c in
  let final = Mat.apply u (Vec.basis (1 lsl c.Circuit.n) 0) in
  (* The marked address occupies the top 3 qubits; ancillas are |0⟩. The
     amplitude of |marked⟩⊗|0..0⟩ sits at index marked·2^(n-3). *)
  let idx = marked lsl (c.Circuit.n - 3) in
  let p_marked = Cplx.norm2 (Vec.get final idx) in
  check_bool
    (Printf.sprintf "marked amplified (p = %.3f)" p_marked)
    true (p_marked > 0.9)

let test_grover_ancillas_clean () =
  let c = grover ~address_bits:3 ~marked:2 ~iterations:1 in
  let u = Circuit.to_unitary c in
  let final = Mat.apply u (Vec.basis (1 lsl c.Circuit.n) 0) in
  (* All support must have ancillas (last n-3 qubits) at |0⟩. *)
  let anc_mask = (1 lsl (c.Circuit.n - 3)) - 1 in
  let leaked = ref 0. in
  for k = 0 to Vec.dim final - 1 do
    if k land anc_mask <> 0 then leaked := !leaked +. Cplx.norm2 (Vec.get final k)
  done;
  close ~tol:1e-9 "no ancilla leakage" 0. !leaked

let test_bernstein_vazirani () =
  let n = 5 and secret = 0b1011 in
  let c = bernstein_vazirani ~n ~secret in
  let _, two, three = Circuit.count_by_arity c in
  check_int "CX-only workload" 0 three;
  check_int "one CX per secret bit" 3 two;
  (* Running on |0...0⟩ reveals the secret on the input register. *)
  let u = Circuit.to_unitary c in
  let final = Mat.apply u (Vec.basis (1 lsl n) 0) in
  let best = ref 0 and best_p = ref 0. in
  for k = 0 to Vec.dim final - 1 do
    let p = Cplx.norm2 (Vec.get final k) in
    if p > !best_p then begin
      best := k;
      best_p := p
    end
  done;
  check_int "secret recovered" secret (!best lsr 1)

let test_fq_4q () =
  let cccz =
    Ququart_gates.fq_4q
      (Gates.controlled Gates.ccz)
      ~operands:[ Ququart_gates.A 0; A 1; B 0; B 1 ]
  in
  assert_unitary "CCCZ on two ququarts" cccz;
  (* Phase flip exactly on |3⟩⊗|3⟩ = index 15. *)
  check_bool "phase on |33>" true (Cplx.close (Mat.get cccz 15 15) Cplx.minus_one);
  check_bool "identity elsewhere" true (Cplx.close (Mat.get cccz 14 14) Cplx.one);
  (* Wrong operand counts rejected. *)
  (try
     ignore (Ququart_gates.fq_4q (Gates.controlled Gates.ccz) ~operands:[ A 0; A 1; B 0 ]);
     Alcotest.fail "three operands accepted"
   with Invalid_argument _ -> ())

let test_cccx_dirty_ancilla_identity () =
  (* The 4-Toffoli dirty-ancilla ladder equals CCCX for any ancilla state. *)
  let gates = Decompose.cccx_with_dirty_ancilla 0 1 2 4 ~ancilla:3 in
  let ladder = Circuit.to_unitary (Circuit.of_gates ~n:5 gates) in
  let direct =
    Circuit.to_unitary (Circuit.of_gates ~n:5 [ g Gate.Cccx [ 0; 1; 2; 4 ] ])
  in
  mat_equal "dirty-ancilla CCCX" direct ladder

let test_cccz_all_strategies () =
  (* A 5-qubit circuit with a four-qubit gate compiles correctly everywhere:
     natively on packed ququarts, via the dirty-ancilla ladder elsewhere. *)
  let circuit =
    Circuit.of_gates ~n:5
      [ g Gate.H [ 0 ]; g Gate.Cccz [ 0; 1; 2; 3 ]; g Gate.Cx [ 3; 4 ];
        g Gate.Cccx [ 4; 1; 2; 0 ] ]
  in
  List.iter
    (fun strategy -> check_equivalent strategy circuit)
    [ Strategy.qubit_only; Strategy.qubit_itoffoli; Strategy.mixed_radix_ccz;
      Strategy.full_ququart ]

let test_cccz_native_on_packed () =
  let circuit = Circuit.of_gates ~n:4 [ g Gate.Cccz [ 0; 1; 2; 3 ] ] in
  let compiled = Compile.compile Strategy.full_ququart circuit in
  check_bool "uses the native CCCZ pulse" true
    (List.exists (fun o -> o.Physical.label = "CCCZ^{01,01}") compiled.Physical.ops);
  check_equivalent Strategy.full_ququart circuit;
  (* Four qubits, two devices, one pulse: the Sec. 1 claim. *)
  check_int "two devices" 2 compiled.Physical.device_count

let test_cccz_needs_spare_when_decomposed () =
  let circuit = Circuit.of_gates ~n:4 [ g Gate.Cccz [ 0; 1; 2; 3 ] ] in
  try
    ignore (Compile.compile Strategy.qubit_only circuit);
    Alcotest.fail "decomposition without a spare qubit accepted"
  with Invalid_argument _ -> ()

let test_ablation_still_correct () =
  (* Ablated strategies must still compile correct circuits — they are only
     allowed to be slower. *)
  let circuit = cuccaro ~bits:1 in
  List.iter
    (fun strategy ->
      List.iter
        (fun (d, ch) -> check_equivalent (Strategy.ablate ~disruption:d ~choreography:ch strategy) circuit)
        [ (false, true); (true, false); (false, false) ])
    [ Strategy.mixed_radix_ccz; Strategy.full_ququart; Strategy.qubit_only ]

let test_ablation_choreography_cost () =
  (* Without slot choreography the CSWAP-oriented strategy degenerates: the
     compiled duration should not beat the choreographed one. *)
  let circuit = qram ~address_bits:2 ~cells:4 in
  let time s = Physical.total_duration (Compile.compile s circuit) in
  let full = time Strategy.mixed_radix_cswap in
  let ablated = time (Strategy.ablate ~choreography:false Strategy.mixed_radix_cswap) in
  check_bool
    (Printf.sprintf "choreography does not hurt (%.0f vs %.0f ns)" full ablated)
    true (full <= ablated +. 1e-6)

let test_ablation_names () =
  let s = Strategy.ablate ~disruption:false ~choreography:false Strategy.full_ququart in
  check_bool "name annotated" true
    (s.Strategy.name = "full-ququart-naive-routing-no-choreography")

let suite =
  [ case "cnu chain semantics" test_cnu_chain_semantics;
    case "cccx dirty ancilla" test_cccx_dirty_ancilla_identity;
    case "cccz all strategies" test_cccz_all_strategies;
    case "cccz native on packed" test_cccz_native_on_packed;
    case "cccz needs spare" test_cccz_needs_spare_when_decomposed;
    case "grover amplifies" test_grover_amplifies;
    case "grover ancillas clean" test_grover_ancillas_clean;
    case "bernstein-vazirani" test_bernstein_vazirani;
    case "fq 4-qubit gates" test_fq_4q;
    case "ablations still correct" test_ablation_still_correct;
    case "choreography cost" test_ablation_choreography_cost;
    case "ablation names" test_ablation_names ]
