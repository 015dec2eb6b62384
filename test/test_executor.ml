open Waltz_circuit
open Waltz_core
open Waltz_noise
open Test_util

let toffoli = Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ]

let sim ?(trajectories = 25) ?(model = Noise.default) strategy circuit =
  let compiled = Compile.compile strategy circuit in
  Executor.simulate
    ~config:{ Executor.model; trajectories; base_seed = 99 }
    compiled

let test_fidelity_in_range () =
  List.iter
    (fun s ->
      let r = sim s toffoli in
      check_bool
        (Printf.sprintf "%s fidelity in (0.5, 1]" s.Strategy.name)
        true
        (r.Executor.mean_fidelity > 0.5 && r.Executor.mean_fidelity <= 1. +. 1e-9))
    Strategy.fig7_set

let test_deterministic () =
  let a = sim Strategy.mixed_radix_ccz toffoli in
  let b = sim Strategy.mixed_radix_ccz toffoli in
  close ~tol:1e-12 "same seed same result" a.Executor.mean_fidelity b.Executor.mean_fidelity

let test_noise_hurts () =
  (* Inflating ww error and shrinking T1 must lower fidelity. *)
  let clean = sim Strategy.full_ququart toffoli in
  let dirty =
    sim
      ~model:{ Noise.default with Noise.ww_error_scale = 10.; t1_high_scale = 20. }
      Strategy.full_ququart toffoli
  in
  check_bool "more noise, less fidelity" true
    (dirty.Executor.mean_fidelity < clean.Executor.mean_fidelity)

let test_matches_eps_roughly () =
  (* For small circuits the trajectory fidelity should track the EPS estimate
     within a loose band. *)
  let compiled = Compile.compile Strategy.mixed_radix_ccz toffoli in
  let eps = (Eps.estimate compiled).Eps.total_eps in
  let r =
    Executor.simulate ~config:{ Executor.default_config with trajectories = 60 } compiled
  in
  check_bool
    (Printf.sprintf "sim %.3f within 0.1 of EPS %.3f" r.Executor.mean_fidelity eps)
    true
    (Float.abs (r.Executor.mean_fidelity -. eps) < 0.1)

let test_memory_guard () =
  check_int "4-level guard" 11 (Executor.max_devices ~device_dim:4);
  let big = Waltz_benchmarks.Bench_circuits.cuccaro ~bits:8 in
  let compiled = Compile.compile Strategy.mixed_radix_ccz big in
  (try
     ignore (Executor.simulate compiled);
     Alcotest.fail "memory guard did not trigger"
   with Invalid_argument _ -> ())

let test_sem_reported () =
  let r = sim ~trajectories:10 Strategy.qubit_only toffoli in
  check_int "trajectory count" 10 r.Executor.trajectories;
  check_bool "sem non-negative" true (r.Executor.sem >= 0.)

(* A compile that returns a new program: its kernel memo starts cold. *)
let compile_fresh strategy circuit =
  Compile.set_program_cache false;
  Fun.protect
    ~finally:(fun () -> Compile.set_program_cache true)
    (fun () -> Compile.compile strategy circuit)

(* Zero trajectories is a plan-only call (the plan is built, no block
   runs, nothing raises); a negative count is a typed error. *)
let test_trajectory_count_guard () =
  let module Telemetry = Waltz_telemetry.Telemetry in
  let compiled = compile_fresh Strategy.mixed_radix_ccz toffoli in
  let model = Noise.default in
  Telemetry.reset ();
  Telemetry.enable ();
  let d =
    Fun.protect ~finally:Telemetry.disable (fun () ->
        Executor.simulate_detailed
          ~config:{ Executor.model; trajectories = 0; base_seed = 1 }
          ~batch:8 compiled)
  in
  check_int "plan built" 1 (Telemetry.Metrics.counter "executor.kernel_memo.miss");
  check_int "no block ran" 0 (Telemetry.Metrics.counter "executor.batch.blocks");
  check_int "zero trajectories reported" 0 d.Executor.summary.Executor.trajectories;
  Alcotest.check_raises "negative count"
    (Invalid_argument "Executor.simulate: trajectories must be >= 0") (fun () ->
      ignore
        (Executor.simulate ~config:{ Executor.model; trajectories = -1; base_seed = 1 }
           compiled))

(* A plan holds nothing that grows with the register: a plan-only call at
   the 11-ququart ceiling (4^11 amplitudes) allocates fewer words than one
   amplitude-sized table would hold. Deterministic allocation counts, not
   timing. *)
let test_plan_at_ceiling () =
  let circuit =
    Circuit.of_gates ~n:22
      (List.init 21 (fun q -> Gate.make Gate.Cx [ q; q + 1 ])
      @ [ Gate.make Gate.Ccx [ 0; 11; 21 ] ])
  in
  let compiled = compile_fresh Strategy.full_ququart circuit in
  check_int "11 devices" 11 compiled.Physical.device_count;
  let model = Noise.default in
  (* [Gc.minor_words] counts the live minor heap too, which the minor
     figure of [Gc.quick_stat] does not. *)
  let words () = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
  let before = words () in
  ignore
    (Executor.simulate ~config:{ Executor.model; trajectories = 0; base_seed = 1 } compiled);
  let allocated = words () -. before in
  let amplitudes = 4. ** 11. in
  check_bool
    (Printf.sprintf "plan-only call allocated %.0f words < 4^11" allocated)
    true (allocated < amplitudes)

(* The noise workload's sweep at 5 qubits: three families x four
   strategies, under the nine models of Fig. 9b/c (ququart gate error x1-6,
   |2>/|3> T1 divided by 2-16). *)
let sweep_programs () =
  List.concat_map
    (fun family ->
      let circuit = Waltz_benchmarks.Bench_circuits.by_total_qubits family 5 in
      List.map
        (fun strategy -> (strategy, circuit, compile_fresh strategy circuit))
        [ Strategy.qubit_only; Strategy.qubit_itoffoli; Strategy.mixed_radix_ccz;
          Strategy.full_ququart ])
    [ Waltz_benchmarks.Bench_circuits.Cuccaro; Qram; Cnu ]

let sweep_models =
  List.map (fun x -> { Noise.default with Noise.ww_error_scale = x }) [ 1.; 2.; 3.; 4.; 6. ]
  @ List.map (fun x -> { Noise.default with Noise.t1_high_scale = x }) [ 2.; 4.; 8.; 16. ]

(* Kernels depend on the program only: plan-only calls under nine models
   place each of the twelve programs' kernels once. *)
let test_model_sweep_places_once () =
  let module Telemetry = Waltz_telemetry.Telemetry in
  let programs = sweep_programs () in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      List.iter
        (fun model ->
          List.iter
            (fun (_, _, compiled) ->
              ignore
                (Executor.simulate_detailed
                   ~config:{ Executor.model; trajectories = 0; base_seed = 1 }
                   compiled))
            programs)
        sweep_models);
  check_int "kernel builds" 12 (Telemetry.Metrics.counter "executor.kernel_memo.miss");
  check_int "kernel memo hits" 96 (Telemetry.Metrics.counter "executor.kernel_memo.hit")

(* A warm memo changes no bit: under every model, a simulate on a program
   whose kernels were placed under other models matches one on a fresh
   compile. *)
let test_warm_memo_bit_identical () =
  let programs = sweep_programs () in
  List.iteri
    (fun i model ->
      List.iter
        (fun ((strategy : Strategy.t), circuit, warm) ->
          let config = { Executor.model; trajectories = 4; base_seed = 11 } in
          let a = Executor.simulate_detailed ~config ~domains:1 warm in
          let b =
            Executor.simulate_detailed ~config ~domains:1 (compile_fresh strategy circuit)
          in
          let tag field = Printf.sprintf "model %d %s %s" i strategy.Strategy.name field in
          check_bool (tag "mean_fidelity") true
            (a.Executor.summary.Executor.mean_fidelity
            = b.Executor.summary.Executor.mean_fidelity);
          check_bool (tag "sem") true
            (a.Executor.summary.Executor.sem = b.Executor.summary.Executor.sem);
          check_bool (tag "mean_leakage") true
            (a.Executor.mean_leakage = b.Executor.mean_leakage);
          check_bool (tag "mean_error_draws") true
            (a.Executor.mean_error_draws = b.Executor.mean_error_draws))
        programs)
    sweep_models

let chain n =
  Compile.compile Strategy.full_ququart
    (Circuit.of_gates ~n (List.init (n - 1) (fun q -> Gate.make Gate.Cx [ q; q + 1 ])))

(* The per-domain workspace holds two SoA blocks, ideal and noisy lanes;
   the inputs are drawn into the first. A smaller register runs first, so
   this domain must grow its planes, and the first simulate on 8 ququarts
   at K = 2 must then allocate fewer major words than 2.5 blocks (a block
   there is 2 planes × 4^8 amplitudes × 2 lanes = 262144 words). On a
   fresh domain, so that planes grown by an earlier case cannot make the
   growth free. Deterministic allocation counts, not timing. *)
let test_workspace_two_blocks () =
  on_fresh_domain @@ fun () ->
  let other = chain 14 and compiled = chain 16 in
  check_int "8 devices" 8 compiled.Physical.device_count;
  let config = { Executor.default_config with Executor.trajectories = 2 } in
  ignore (Executor.simulate ~config ~domains:1 ~batch:8 other);
  let before = major_words () in
  ignore (Executor.simulate ~config ~domains:1 ~batch:8 compiled);
  let allocated = major_words () -. before in
  let block = 2. *. (4. ** 8.) *. 2. in
  check_bool
    (Printf.sprintf "first simulate allocated %.0f major words < 2.5 blocks (%.0f)" allocated
       (2.5 *. block))
    true
    (allocated < 2.5 *. block)

(* A domain's planes only grow: a register that fits in them is laid over
   them. After 8 ququarts at K = 2, a 6-ququart run at K = 8 (a quarter of
   the planes) and the 8-ququart run again must together allocate fewer
   major words than one 8-ququart block (262144 words). Replacing the
   workspace on every shape change costs about 655k: a 131072-word one for
   6 ququarts, then a fresh 524288-word one for 8. *)
let test_workspace_alternating_shapes () =
  on_fresh_domain @@ fun () ->
  let big = chain 16 and small = chain 12 in
  check_int "8 devices" 8 big.Physical.device_count;
  check_int "6 devices" 6 small.Physical.device_count;
  let run trajectories compiled =
    ignore
      (Executor.simulate
         ~config:{ Executor.default_config with Executor.trajectories }
         ~domains:1 ~batch:8 compiled)
  in
  run 2 big;
  let before = major_words () in
  run 8 small;
  run 2 big;
  let allocated = major_words () -. before in
  let block = 2. *. (4. ** 8.) *. 2. in
  check_bool
    (Printf.sprintf "alternating shapes allocated %.0f major words < one block (%.0f)"
       allocated block)
    true (allocated < block)

(* The workspace counter stays a real cross-check of the certificate: a
   domain's first simulate observes exactly the certified block term, and
   a smaller register laid over the same planes observes 0. *)
let test_workspace_bytes_certified () =
  let module Telemetry = Waltz_telemetry.Telemetry in
  let module Resource = Waltz_analysis.Resource in
  on_fresh_domain @@ fun () ->
  let big = chain 12 and small = chain 10 in
  let trajectories = 4 and batch = 4 in
  let observe compiled =
    Telemetry.reset ();
    Telemetry.enable ();
    Fun.protect ~finally:Telemetry.disable (fun () ->
        ignore
          (Executor.simulate
             ~config:{ Executor.default_config with Executor.trajectories }
             ~domains:1 ~batch compiled);
        Telemetry.Metrics.counter "executor.workspace.block_bytes")
  in
  let cert = Resource.certify ~trajectories ~batch ~domains:1 big in
  check_int "first simulate observes the certified block term"
    cert.Resource.block_workspace_bytes (observe big);
  check_int "a smaller register reuses the planes" 0 (observe small)

(* A gate that does not fit its targets makes [Kernel.compile] raise while
   a kernel memo is built. The raise must leave the executor usable: a
   later simulate on the same domain has to place its own kernels. *)
let test_failed_placement_leaves_executor_usable () =
  let module Mat = Waltz_linalg.Mat in
  let good = compile_fresh Strategy.mixed_radix_ccz toffoli in
  let bad =
    match good.Physical.ops with
    | op :: rest ->
      let gate = Mat.identity (2 * op.Physical.gate.Mat.rows) in
      { good with Physical.ops = { op with Physical.gate } :: rest }
    | [] -> Alcotest.fail "compiled toffoli has no ops"
  in
  let model = Noise.default in
  let config = { Executor.model; trajectories = 4; base_seed = 1 } in
  (match Executor.simulate ~config ~domains:1 bad with
  | _ -> Alcotest.fail "a malformed op was simulated"
  | exception Invalid_argument _ -> ());
  let r = Executor.simulate ~config ~domains:1 good in
  check_int "later simulate runs" 4 r.Executor.trajectories

(* Every kernel [Executor.place] compiles acts on the register's two-level
   wire view. Applied to a Haar-random one-lane state, it must agree with
   [State.apply] of the op's lift, the Kronecker reference on the device
   register, over the families at 5-7 qubits x every strategy and the
   kernel-mix program, which covers all five kernel classes. The placed
   bytes must count each distinct kernel once. *)
let test_placed_kernels_match_lift () =
  let module Bench = Waltz_benchmarks.Bench_circuits in
  let module Kernel = Waltz_sim.Kernel in
  let module State = Waltz_sim.State in
  let module Vec = Waltz_linalg.Vec in
  let r = rng 29 in
  let check name (p : Physical.t) =
    let device_dim = p.Physical.device_dim in
    let placement = Executor.place p in
    let dims = placement.Executor.dims in
    let input = State.amplitudes (State.random r ~dims) in
    List.iteri
      (fun i (op : Physical.op) ->
        let kernel = placement.Executor.kernels.(i) in
        let v = Vec.copy input in
        Kernel.apply_block kernel v.Vec.re v.Vec.im ~cap:1 ~live:1;
        let devices, lifted = Executor.lift_gate ~device_dim op in
        let reference = State.of_vec ~dims (Vec.copy input) in
        State.apply reference ~targets:devices lifted;
        let w = State.amplitudes reference in
        let diff = ref 0. in
        for k = 0 to Vec.dim v - 1 do
          diff := Float.max !diff (Float.abs (v.Vec.re.(k) -. w.Vec.re.(k)));
          diff := Float.max !diff (Float.abs (v.Vec.im.(k) -. w.Vec.im.(k)))
        done;
        if not (!diff <= 1e-12) then
          Alcotest.failf "%s, op %d (%s, %s): kernel differs from the lift by %g" name i
            op.Physical.label (Kernel.class_name kernel) !diff)
      p.Physical.ops;
    let distinct =
      Array.fold_left
        (fun acc k -> if List.memq k acc then acc else k :: acc)
        [] placement.Executor.kernels
    in
    check_int (name ^ ": placed bytes are the distinct kernels' footprints")
      (List.fold_left (fun acc k -> acc + Kernel.footprint_bytes k) 0 distinct)
      placement.Executor.placed_bytes
  in
  List.iter
    (fun family ->
      List.iter
        (fun n ->
          let circuit = Bench.by_total_qubits family n in
          List.iter
            (fun (s : Strategy.t) ->
              check
                (Printf.sprintf "%s-%d %s" (Bench.family_name family) n s.Strategy.name)
                (Compile.compile s circuit))
            Strategy.all)
        [ 5; 6; 7 ])
    Bench.all_families;
  let mix = Waltz_benchmarks.Kernel_mix.program () in
  let classes =
    Array.to_list (Array.map Kernel.class_name (Executor.place mix).Executor.kernels)
  in
  List.iter
    (fun cls -> check_bool ("kernel mix covers " ^ cls) true (List.mem cls classes))
    Kernel.classes;
  check "kernel mix" mix

let suite =
  [ case "fidelity in range" test_fidelity_in_range;
    case "deterministic" test_deterministic;
    case "noise hurts" test_noise_hurts;
    case "matches eps roughly" test_matches_eps_roughly;
    case "memory guard" test_memory_guard;
    case "sem reported" test_sem_reported;
    case "trajectory count guard" test_trajectory_count_guard;
    case "a model sweep places kernels once per program" test_model_sweep_places_once;
    case "a warm kernel memo is bit-identical to a fresh compile"
      test_warm_memo_bit_identical;
    case "plan-only call at the 11-device ceiling" test_plan_at_ceiling;
    case "workspace holds two blocks" test_workspace_two_blocks;
    case "alternating shapes allocate no planes" test_workspace_alternating_shapes;
    case "workspace bytes match the certificate, then 0 on reuse"
      test_workspace_bytes_certified;
    case "failed placement leaves the executor usable"
      test_failed_placement_leaves_executor_usable;
    case "placed kernels match the lift" test_placed_kernels_match_lift ]
