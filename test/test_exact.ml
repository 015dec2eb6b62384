(* The density-matrix executor and its cross-validation of the trajectory
   method: on small circuits the trajectory mean fidelity must converge to
   the exact channel value. *)

open Waltz_linalg
open Waltz_circuit
open Waltz_sim
open Waltz_core
open Waltz_noise
open Test_util
module Embed = Waltz_qudit.Embed
module Bench = Waltz_benchmarks.Bench_circuits

let toffoli = Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ]

let test_density_basics () =
  let r = rng 3 in
  let psi = State.random r ~dims:[| 2; 4 |] in
  let rho = Density.of_pure psi in
  close ~tol:1e-12 "unit trace" 1. (Density.trace rho);
  close ~tol:1e-12 "pure self-fidelity" 1. (Density.fidelity_with_pure rho psi);
  (* Unitary invariance of trace and fidelity transformation. *)
  Density.apply_unitary rho ~targets:[ 1 ] (Waltz_qudit.Qudit_ops.x_plus ~d:4 1);
  close ~tol:1e-12 "trace preserved" 1. (Density.trace rho);
  State.apply psi ~targets:[ 1 ] (Waltz_qudit.Qudit_ops.x_plus ~d:4 1);
  close ~tol:1e-12 "evolves like the pure state" 1. (Density.fidelity_with_pure rho psi)

let test_density_kraus () =
  (* Full damping from |1⟩ must land in |0⟩. *)
  let psi = State.of_vec ~dims:[| 2 |] (Vec.basis 2 1) in
  let rho = Density.of_pure psi in
  let k0 = Mat.of_real_rows [ [ 1.; 0. ]; [ 0.; 0. ] ] in
  let k1 = Mat.of_real_rows [ [ 0.; 1. ]; [ 0.; 0. ] ] in
  Density.apply_kraus rho ~targets:[ 0 ] [ k0; k1 ];
  let ground = State.of_vec ~dims:[| 2 |] (Vec.basis 2 0) in
  close ~tol:1e-12 "decayed to ground" 1. (Density.fidelity_with_pure rho ground)

let test_density_depolarize () =
  (* Full single-qubit depolarizing sends |0⟩⟨0| toward the maximally mixed
     state: with p the state is (1−p)ρ + p/3 Σ PρP†. *)
  let psi = State.of_vec ~dims:[| 2 |] (Vec.basis 2 0) in
  let rho = Density.of_pure psi in
  let p = 0.3 in
  Density.depolarize rho ~parts:[ ([ 0 ], Noise.pauli_set ~d:2) ] ~p;
  close ~tol:1e-12 "trace preserved" 1. (Density.trace rho);
  (* ⟨0|ρ|0⟩ = (1−p) + p/3 (the Z branch keeps |0⟩). *)
  close ~tol:1e-9 "survival matches closed form"
    (1. -. p +. (p /. 3.))
    (Density.fidelity_with_pure rho psi)

(* A dense reference for [Density]: every operator lifted to the whole
   register with [Embed.on_wires], UρU† as two products, and depolarizing
   as the sum over the listed non-identity products. *)
module Dense = struct
  let sandwich dims rho ~targets k =
    let full = Embed.on_wires ~dims ~targets k in
    Mat.mul full (Mat.mul rho (Mat.adjoint full))

  let kraus dims rho ~targets ks =
    let n = rho.Mat.rows in
    List.fold_left (fun acc k -> Mat.add acc (sandwich dims rho ~targets k)) (Mat.zeros n n) ks

  let depolarize dims rho ~parts ~p =
    let rec combos = function
      | [] -> [ [] ]
      | (targets, set) :: rest ->
        let tails = combos rest in
        List.concat_map
          (fun idx -> List.map (fun tail -> (targets, set.(idx), idx) :: tail) tails)
          (List.init (Array.length set) Fun.id)
    in
    let non_identity =
      List.filter (List.exists (fun (_, _, idx) -> idx <> 0)) (combos parts)
    in
    let weight = Cplx.re (p /. float_of_int (List.length non_identity)) in
    let n = rho.Mat.rows in
    List.fold_left
      (fun acc combo ->
        let op =
          List.fold_left
            (fun op (targets, k, _) -> Mat.mul op (Embed.on_wires ~dims ~targets k))
            (Mat.identity n) combo
        in
        Mat.add acc (Mat.scale weight (Mat.mul op (Mat.mul rho (Mat.adjoint op)))))
      (Mat.scale (Cplx.re (1. -. p)) rho)
      non_identity
end

(* exp(iH) for a random Hermitian H on [d] levels. *)
let random_unitary r d =
  let a = Mat.init d d (fun _ _ -> Cplx.c (Rng.gaussian r) (Rng.gaussian r)) in
  Mat.expm (Mat.scale Cplx.i (Mat.add a (Mat.adjoint a)))

let test_density_matches_dense () =
  let r = rng 29 in
  List.iter
    (fun dims ->
      let psi = State.random r ~dims in
      let rho = Density.of_pure psi in
      let dense = ref (Density.to_mat rho) in
      let step label apply reference =
        apply rho;
        dense := reference !dense;
        let shape = String.concat "," (Array.to_list (Array.map string_of_int dims)) in
        mat_equal ~tol:1e-12 (Printf.sprintf "[%s] %s" shape label) !dense (Density.to_mat rho)
      in
      let quart = List.find (fun w -> dims.(w) = 4) [ 0; 1; 2 ] in
      let other = (quart + 1) mod 3 in
      let u = random_unitary r (dims.(quart) * dims.(other)) in
      step "unitary" (fun d -> Density.apply_unitary d ~targets:[ quart; other ] u) (fun m ->
          Dense.sandwich dims m ~targets:[ quart; other ] u);
      let lambdas =
        Noise.damping_lambdas Noise.default ~d:4 ~dt_ns:(20_000. +. Rng.float r 40_000.)
      in
      let damp =
        Mat.diag (Array.map Cplx.re (State.damp_scales lambdas))
        :: List.init 3 (fun m ->
               Mat.init 4 4 (fun i j ->
                   if i = 0 && j = m + 1 then Cplx.re (sqrt lambdas.(m + 1)) else Cplx.zero))
      in
      step "damping" (fun d -> Density.apply_kraus d ~targets:[ quart ] damp) (fun m ->
          Dense.kraus dims m ~targets:[ quart ] damp);
      let one = [ ([ other ], Noise.pauli_set ~d:dims.(other)) ] in
      step "depolarize one part" (fun d -> Density.depolarize d ~parts:one ~p:0.3) (fun m ->
          Dense.depolarize dims m ~parts:one ~p:0.3);
      let p2 =
        Array.map (Executor.embed_error ~device_dim:4 (Physical.P2 1)) (Noise.pauli_set ~d:2)
      in
      let two = [ ([ quart ], p2); ([ other ], Noise.pauli_set ~d:dims.(other)) ] in
      step "depolarize two parts" (fun d -> Density.depolarize d ~parts:two ~p:0.7) (fun m ->
          Dense.depolarize dims m ~parts:two ~p:0.7))
    [ [| 4; 2; 2 |]; [| 2; 4; 4 |]; [| 4; 4; 2 |]; [| 2; 2; 4 |] ]

(* The headline validation: exact channel fidelity vs trajectory mean, on
   the Toffoli and on 3-ququart benchmark programs of up to 22 ops. *)
let test_exact_matches_trajectory () =
  List.iter
    (fun (label, strategy, circuit) ->
      let compiled = Compile.compile strategy circuit in
      let exact = Exact.simulate_exact ~inputs:6 ~base_seed:77 compiled in
      let traj =
        Executor.simulate
          ~config:{ Executor.model = Noise.default; trajectories = 600; base_seed = 77 }
          compiled
      in
      let diff = Float.abs (exact.Exact.mean_fidelity -. traj.Executor.mean_fidelity) in
      check_bool
        (Printf.sprintf "%s/%s: exact %.4f vs trajectory %.4f (+-%.4f)" label
           strategy.Strategy.name exact.Exact.mean_fidelity traj.Executor.mean_fidelity
           traj.Executor.sem)
        true
        (diff < Float.max 0.03 (4. *. traj.Executor.sem)))
    ([ ("toffoli", Strategy.full_ququart, toffoli); ("toffoli", Strategy.mixed_radix_ccz, toffoli) ]
    @ List.map
        (fun (family, size) ->
          ( Printf.sprintf "%s-%d" (Bench.family_name family) size,
            Strategy.full_ququart,
            Bench.by_total_qubits family size ))
        [ (Bench.Cnu, 5); (Bench.Cuccaro, 6); (Bench.Qram, 6); (Bench.Select, 6) ])

let test_exact_guard () =
  let big = Bench.cuccaro ~bits:2 in
  let compiled = Compile.compile Strategy.mixed_radix_ccz big in
  try
    ignore (Exact.simulate_exact compiled);
    Alcotest.fail "oversized register accepted"
  with Invalid_argument _ -> ()

(* A mean over no inputs is 0/0: zero and negative counts are refused up
   front, before any evolution. *)
let test_exact_inputs () =
  let compiled = Compile.compile Strategy.full_ququart toffoli in
  List.iter
    (fun inputs ->
      match Exact.simulate_exact ~inputs compiled with
      | _ -> Alcotest.failf "inputs = %d accepted" inputs
      | exception Invalid_argument msg ->
        Alcotest.(check string)
          (Printf.sprintf "inputs = %d" inputs)
          "Exact.simulate_exact: inputs must be >= 1" msg)
    [ 0; -1 ]

let suite =
  [ case "density basics" test_density_basics;
    case "density kraus" test_density_kraus;
    case "density depolarize" test_density_depolarize;
    case "density matches the dense reference" test_density_matches_dense;
    case "exact vs trajectory" test_exact_matches_trajectory;
    case "exact size guard" test_exact_guard;
    case "exact refuses inputs < 1" test_exact_inputs ]
