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
        Exact.damping_kraus ~d:4
          { Executor.dwire = quart; lambdas; scales = State_block.damp_scales lambdas }
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

(* ---- The trajectory step, branch by branch, against the channel ---- *)

(* A trajectory step unravels the channel [Exact] applies: summed over its
   branches with their weights, the post-step states must give the channel
   exactly. Each lane of a batch-8 block holds a Haar-random state over the
   whole register, so every level is populated; the branches run through
   the shipped step ([State_block.damp_weights]/[damp_apply],
   [Noise.error_product], [Executor.apply_error]) and the channel through
   [Density] with [Exact]'s own Kraus sets and error parts. *)
let lanes = 8

(* [rho] += w·|ψ⟩⟨ψ|, with ρ_ij = ψ_i·conj ψ_j as in [Density.to_mat]. *)
let add_outer (rho : Mat.t) w (v : Vec.t) =
  let n = Vec.dim v in
  for i = 0 to n - 1 do
    let ar = w *. v.Vec.re.(i) and ai = w *. v.Vec.im.(i) in
    for j = 0 to n - 1 do
      let br = v.Vec.re.(j) and bi = v.Vec.im.(j) in
      let p = (i * n) + j in
      rho.Mat.re.(p) <- rho.Mat.re.(p) +. (ar *. br) +. (ai *. bi);
      rho.Mat.im.(p) <- rho.Mat.im.(p) +. (ai *. br) -. (ar *. bi)
    done
  done

let against_channel what ~dims sum psi channel =
  let rho = Density.of_pure (State.of_vec ~dims psi) in
  channel rho;
  let diff = Mat.max_abs_diff sum (Density.to_mat rho) in
  if not (diff <= 1e-12) then Alcotest.failf "%s: branch sum off the channel by %g" what diff

let same_bits (a : Vec.t) (b : Vec.t) =
  let eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  Array.for_all2 eq a.Vec.re b.Vec.re && Array.for_all2 eq a.Vec.im b.Vec.im

let jumped choices = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 choices

(* Every branch of one damping window on every lane. In round r lane k
   takes branch (r + k) mod d, so each round mixes branches (the masked
   sweep) and each lane takes every branch once; a branch of weight 0
   (λ_m = 0) has no state, so its lane takes no jump instead and is left
   out of the sum. A round with no jump anywhere runs the lockstep sweep,
   which must give each lane the masked sweep's no-jump bits. Last,
   [damp_with] must be its weights, one draw per lane from the lane's own
   RNG, then [damp_apply]. *)
let check_window what ~dims ~seed blk work (w : Executor.damp_spec) =
  let wire = w.Executor.dwire and lambdas = w.Executor.lambdas and scales = w.Executor.scales in
  let d = dims.(wire) and n = State_block.dim_total blk in
  let weights = Array.make (d * lanes) nan in
  State_block.damp_weights weights blk ~wire ~lambdas;
  let sums = Array.init lanes (fun _ -> Mat.zeros n n) in
  let no_jump = Array.make lanes (Vec.create 0) in
  let choices = Array.make lanes 0 in
  let apply () =
    State_block.assign ~dst:work ~src:blk;
    let jumps = State_block.damp_apply work choices ~wire ~scales in
    if jumps <> jumped choices then Alcotest.failf "%s: damp_apply counts %d jumps" what jumps
  in
  for r = 0 to d - 1 do
    let branch k = (r + k) mod d in
    Array.iteri
      (fun k _ ->
        let b = branch k in
        choices.(k) <- (if weights.((b * lanes) + k) > 0. then b else 0))
      choices;
    apply ();
    Array.iteri
      (fun k c ->
        if c = branch k then begin
          let psi = State_block.read_lane work k in
          if c = 0 then no_jump.(k) <- psi;
          add_outer sums.(k) weights.((c * lanes) + k) psi
        end)
      choices
  done;
  Array.fill choices 0 lanes 0;
  apply ();
  let kraus = Exact.damping_kraus ~d w in
  for k = 0 to lanes - 1 do
    let what = Printf.sprintf "%s lane %d" what k in
    if not (same_bits (State_block.read_lane work k) no_jump.(k)) then
      Alcotest.failf "%s: the lockstep sweep differs from the masked no-jump branch" what;
    against_channel what ~dims sums.(k) (State_block.read_lane blk k) (fun rho ->
        Density.apply_kraus rho ~targets:[ wire ] kraus)
  done;
  let rngs () = Array.init lanes (fun k -> Rng.make ~seed:(seed + k)) in
  let replay = rngs () in
  Array.iteri
    (fun k _ ->
      choices.(k) <-
        Rng.weighted_choice replay.(k) (Array.init d (fun b -> weights.((b * lanes) + k))))
    choices;
  apply ();
  let drawn = State_block.create ~dims ~cap:lanes in
  State_block.assign ~dst:drawn ~src:blk;
  let jumps = State_block.damp_with drawn (rngs ()) ~wire ~lambdas ~scales in
  if jumps <> jumped choices then Alcotest.failf "%s: damp_with counts %d jumps" what jumps;
  for k = 0 to lanes - 1 do
    if not (same_bits (State_block.read_lane drawn k) (State_block.read_lane work k)) then
      Alcotest.failf "%s lane %d: damp_with differs from its replay" what k
  done

(* Every branch of one op's error draw on lane [k]: no error with weight
   1 − p, and each non-identity product with weight p/(M − 1), at the
   trajectories' probability min(1, p). *)
let check_error what ~device_dim ~dims blk work k (n : Executor.op_noise) =
  let m = Noise.error_products ~dims:n.Executor.error_dims in
  let p = Float.min 1. n.Executor.error_p in
  let psi = State_block.read_lane blk k in
  let sum = Mat.zeros (Vec.dim psi) (Vec.dim psi) in
  add_outer sum (1. -. p) psi;
  for j = 1 to m - 1 do
    State_block.assign ~dst:work ~src:blk;
    Executor.apply_error ~device_dim work k n (Noise.error_product ~dims:n.Executor.error_dims j);
    add_outer sum (p /. float_of_int (m - 1)) (State_block.read_lane work k)
  done;
  against_channel (Printf.sprintf "%s lane %d" what k) ~dims sum psi (fun rho ->
      Density.depolarize rho ~parts:(Exact.error_parts ~device_dim n) ~p)

(* The family programs the oracle admits: the families at 5 and 6 qubits
   (cnu-5, cuccaro-4 and -6, qram-4, select-5 and -6) and the Toffoli,
   under every strategy, at most three ququarts or six qubit devices. *)
let oracle_programs =
  lazy
    (List.concat_map
       (fun circuit ->
         List.filter_map
           (fun strategy ->
             let p = Compile.compile strategy circuit in
             if p.Physical.device_count <= Exact.max_exact_devices ~device_dim:p.Physical.device_dim
             then Some p
             else None)
           Strategy.all)
       (toffoli
       :: List.sort_uniq compare
            (List.concat_map
               (fun family -> [ Bench.by_total_qubits family 5; Bench.by_total_qubits family 6 ])
               Bench.all_families)))

(* A program's windows, each distinct device once, and its error draws,
   each distinct pattern of roles once on a lane of its own; [edges] adds
   the windows λ = 0 (no decay) and λ_m = 1 (full decay) on device 0. *)
let check_program ~edges model (p : Physical.t) =
  let device_dim = p.Physical.device_dim in
  let dims = Array.make p.Physical.device_count device_dim in
  let blk = State_block.create ~dims ~cap:lanes and work = State_block.create ~dims ~cap:lanes in
  State_block.fill_random_supported blk
    (Array.init lanes (fun k -> Rng.make ~seed:(1000 + k)))
    ~allowed:(Array.map (fun d -> Array.make d true) dims);
  let noise = Executor.noise_schedule ~model p in
  let name = p.Physical.strategy.Strategy.name in
  let seen = Hashtbl.create 16 in
  let first key = (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true) in
  let window ?(fresh = false) what (w : Executor.damp_spec) =
    if fresh || first (`Device w.Executor.dwire) then
      check_window what ~dims ~seed:(100 * Hashtbl.length seen) blk work w
  in
  Array.iteri
    (fun i (n : Executor.op_noise) ->
      let what = Printf.sprintf "%s op %d" name i in
      List.iter (window (what ^ " window")) n.Executor.pre_damp;
      if n.Executor.error_parts <> [] && first (`Error (List.map snd n.Executor.error_parts))
      then
        check_error (what ^ " error") ~device_dim ~dims blk work
          (Hashtbl.length seen mod lanes) n)
    noise.Executor.op_noise;
  List.iter (window (name ^ " final window")) noise.Executor.final_damp;
  if edges then
    List.iter
      (fun lambda ->
        let lambdas = Array.init device_dim (fun m -> if m = 0 then 0. else lambda) in
        window ~fresh:true
          (Printf.sprintf "%s lambda %g" name lambda)
          { Executor.dwire = 0; lambdas; scales = State_block.damp_scales lambdas })
      [ 0.; 1. ]

(* The 39 distinct programs under the default model and a hot one (gate
   error ×6, T1 ÷ 300), with the edge windows on the Toffoli's, once. *)
let test_branches_match_channel () =
  let hot =
    { Noise.default with
      Noise.ww_error_scale = 6.;
      Noise.t1_base_ns = Noise.default.Noise.t1_base_ns /. 300. }
  in
  List.iter
    (fun (model, edges) ->
      List.iter
        (fun (p : Physical.t) -> check_program ~edges:(edges && p.Physical.n_logical = 3) model p)
        (Lazy.force oracle_programs))
    [ (Noise.default, false); (hot, true) ]

let suite =
  [ case "every trajectory branch sums to the oracle's channel" test_branches_match_channel;
    case "density basics" test_density_basics;
    case "density kraus" test_density_kraus;
    case "density depolarize" test_density_depolarize;
    case "density matches the dense reference" test_density_matches_dense;
    case "exact vs trajectory" test_exact_matches_trajectory;
    case "exact size guard" test_exact_guard;
    case "exact refuses inputs < 1" test_exact_inputs ]
