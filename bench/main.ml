(* Regenerates every table and figure of "Dancing the Quantum Waltz"
   (ISCA 2023). Each section prints the same rows/series the paper reports;
   see EXPERIMENTS.md for the paper-vs-measured record.

   Environment knobs:
     WALTZ_TRAJ       trajectories per simulated point (default 20)
     WALTZ_SIZES      comma-separated simulated circuit sizes (default "5,7,9")
     WALTZ_EPS_SIZES  sizes for the EPS studies (default "5,9,13,17,21")
     WALTZ_SECTIONS   comma-separated subset of
                      table1,table2,fig2,fig7,fig8,fig9a,fig9b,fig9c,fig9d,
                      ablations,resynth,pulses,micro,smoke (default: all)
     WALTZ_PULSE_ITERS  GRAPE iterations in the pulse section (default 400)
     WALTZ_SENS_N     circuit size for the fig9b/c/d sensitivity sweeps
                      (default 7; they run 3x the trajectories)

   Command line: any arguments are treated as section names, overriding
   WALTZ_SECTIONS. *)

open Waltz_linalg
open Waltz_qudit
open Waltz_circuit
open Waltz_noise
open Waltz_core
open Waltz_benchmarks

let env_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let env_int_list name default =
  match Sys.getenv_opt name with
  | Some v -> List.map int_of_string (String.split_on_char ',' v)
  | None -> default

let trajectories = env_int "WALTZ_TRAJ" 20
let sim_sizes = env_int_list "WALTZ_SIZES" [ 5; 7; 9 ]
let eps_sizes = env_int_list "WALTZ_EPS_SIZES" [ 5; 9; 13; 17; 21 ]
let pulse_iters = env_int "WALTZ_PULSE_ITERS" 400

(* The Fig. 9 sensitivity studies multiply trajectories by 3, so they use
   their own (smaller) default size. *)
let sens_n = env_int "WALTZ_SENS_N" 7

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader title = Printf.printf "\n-- %s --\n" title

let simulate ?(model = Noise.default) ?(traj = trajectories) strategy circuit =
  let compiled = Compile.compile strategy circuit in
  let r =
    Executor.simulate
      ~config:{ Executor.model; trajectories = traj; base_seed = 20230617 }
      compiled
  in
  (r.Executor.mean_fidelity, r.Executor.sem)

(* ---------------- Table 1 & 2 ---------------- *)

let print_entries entries =
  List.iter
    (fun (e : Calibration.entry) ->
      Printf.printf "  %-14s %6.0f ns   F = %.3f\n" e.Calibration.label
        e.Calibration.duration_ns e.Calibration.fidelity)
    entries

let table1 () =
  header "Table 1: one-/two-qubit and iToffoli pulse calibration";
  List.iteri
    (fun k group ->
      subheader
        (List.nth
           [ "(a) Qudit (single ququart)"; "(b) Qubit only"; "(c) Mixed-radix";
             "(d) Full-ququart" ]
           k);
      print_entries group)
    Calibration.table1;
  let unitaries =
    [ Ququart_gates.internal_cx ~target_slot:0;
      Ququart_gates.internal_cx ~target_slot:1;
      Ququart_gates.internal_swap;
      Ququart_gates.mr_2q Gates.cx ~first:Qubit ~second:(Slot 0);
      Ququart_gates.mr_2q Gates.cx ~first:(Slot 1) ~second:Qubit;
      Ququart_gates.fq_2q Gates.cz ~first:(A 0) ~second:(B 1);
      Encoding.enc ~incoming_slot:0;
      Encoding.enc ~incoming_slot:1 ]
  in
  Printf.printf "\n  gate-set unitarity check: %s\n"
    (if List.for_all (Mat.is_unitary ~tol:1e-9) unitaries then "PASS" else "FAIL")

let table2 () =
  header "Table 2: mixed-radix and full-ququart three-qubit gate durations";
  List.iteri
    (fun k group ->
      subheader (List.nth [ "(a) Mixed-radix"; "(b) Full-ququart" ] k);
      print_entries group)
    Calibration.table2;
  let unitaries =
    [ Ququart_gates.mr_3q Gates.ccx ~operands:[ Slot 0; Slot 1; Qubit ];
      Ququart_gates.mr_3q Gates.ccz ~operands:[ Slot 0; Slot 1; Qubit ];
      Ququart_gates.mr_3q Gates.cswap ~operands:[ Qubit; Slot 0; Slot 1 ];
      Ququart_gates.fq_3q Gates.ccx ~operands:[ A 0; A 1; B 0 ];
      Ququart_gates.fq_3q Gates.ccz ~operands:[ A 0; A 1; B 1 ];
      Ququart_gates.fq_3q Gates.cswap ~operands:[ A 0; B 0; B 1 ] ]
  in
  Printf.printf "\n  three-qubit gate-set unitarity check: %s\n"
    (if List.for_all (Mat.is_unitary ~tol:1e-9) unitaries then "PASS" else "FAIL");
  subheader "(extension) four-qubit pulse on two ququarts — not in the paper";
  print_entries [ Calibration.fq_cccz ];
  Printf.printf "  CCCZ unitarity: %s (duration extrapolated; see DESIGN.md)\n"
    (if
       Mat.is_unitary
         (Ququart_gates.fq_4q (Gates.controlled Gates.ccz)
            ~operands:[ A 0; A 1; B 0; B 1 ])
     then "PASS"
     else "FAIL")

(* ---------------- Fig. 2: RB / IRB ---------------- *)

let fig2 () =
  header "Fig. 2: randomized benchmarking of a ququart (simulated device)";
  let open Waltz_sim in
  let rng = Rng.make ~seed:2 in
  let depths = [ 1; 5; 10; 20; 40; 70; 100 ] in
  let p_clifford = Rb.error_prob_of_fidelity 0.958 in
  let hh = Mat.kron Gates.h Gates.h in
  let p_hh = Rb.error_prob_of_fidelity 0.96 in
  let samples = 40 in
  let reference = Rb.run rng ~depths ~samples ~error_per_clifford:p_clifford () in
  let interleaved =
    Rb.run rng ~depths ~samples ~error_per_clifford:p_clifford ~interleave:(hh, p_hh) ()
  in
  Printf.printf "  %-7s %-22s %-22s\n" "depth" "RB survival" "IRB survival";
  List.iter2
    (fun (a : Rb.point) (b : Rb.point) ->
      Printf.printf "  %-7d %.4f +- %.4f       %.4f +- %.4f\n" a.Rb.depth a.Rb.survival_mean
        a.Rb.survival_sem b.Rb.survival_mean b.Rb.survival_sem)
    reference.Rb.points interleaved.Rb.points;
  let f_hh = Rb.interleaved_gate_fidelity ~reference ~interleaved in
  Printf.printf "\n  fitted F_RB  = %.3f   (paper: 0.958)\n" reference.Rb.fidelity;
  Printf.printf "  fitted F_IRB = %.3f   (paper: 0.921)\n" interleaved.Rb.fidelity;
  Printf.printf "  extracted F_HH = %.3f   (paper: 0.960)\n" f_hh

(* ---------------- Fig. 7 ---------------- *)

let fig7_strategies = Strategy.fig7_set
let circuit_of family n = Bench_circuits.by_total_qubits family n

let fig7 () =
  header "Fig. 7: simulated fidelities across circuits, sizes and strategies";
  Printf.printf
    "(trajectories per point: %d; sizes: %s; scale up with WALTZ_TRAJ / WALTZ_SIZES)\n"
    trajectories
    (String.concat "," (List.map string_of_int sim_sizes));
  let results = Hashtbl.create 64 in
  List.iter
    (fun family ->
      subheader (Printf.sprintf "Fig. 7: %s" (Bench_circuits.family_name family));
      Printf.printf "  %-6s" "n";
      List.iter (fun (s : Strategy.t) -> Printf.printf " %-16s" s.Strategy.name) fig7_strategies;
      print_newline ();
      List.iter
        (fun n ->
          let circuit = circuit_of family n in
          Printf.printf "  %-6d" circuit.Circuit.n;
          List.iter
            (fun strategy ->
              let f, sem = simulate strategy circuit in
              Hashtbl.replace results (family, n, strategy.Strategy.name) f;
              Printf.printf " %.3f+-%.3f    " f sem)
            fig7_strategies;
          print_newline ())
        sim_sizes)
    Bench_circuits.all_families;
  subheader "Fig. 7e: average fidelity improvement over qubit-only";
  Printf.printf "  %-6s" "n";
  List.iter
    (fun (s : Strategy.t) ->
      if s.Strategy.name <> "qubit-only" then Printf.printf " %-16s" s.Strategy.name)
    fig7_strategies;
  print_newline ();
  List.iter
    (fun n ->
      Printf.printf "  %-6d" n;
      List.iter
        (fun (strategy : Strategy.t) ->
          if strategy.Strategy.name <> "qubit-only" then begin
            let ratios =
              List.filter_map
                (fun family ->
                  match
                    ( Hashtbl.find_opt results (family, n, strategy.Strategy.name),
                      Hashtbl.find_opt results (family, n, "qubit-only") )
                  with
                  | Some f, Some base when base > 1e-6 -> Some (f /. base)
                  | _ -> None)
                Bench_circuits.all_families
            in
            let avg =
              List.fold_left ( +. ) 0. ratios /. float_of_int (max 1 (List.length ratios))
            in
            Printf.printf " %-16s" (Printf.sprintf "%.2fx" avg)
          end)
        fig7_strategies;
      print_newline ())
    sim_sizes

(* ---------------- Fig. 8: EPS ---------------- *)

let fig8 () =
  header "Fig. 8: EPS statistics for the generalized Toffoli circuit";
  Printf.printf "  %-6s %-16s %-10s %-10s %-10s %-12s\n" "n" "strategy" "gateEPS" "cohEPS"
    "totalEPS" "duration(ns)";
  List.iter
    (fun n ->
      let circuit = circuit_of Bench_circuits.Cnu n in
      List.iter
        (fun (strategy : Strategy.t) ->
          let compiled = Compile.compile strategy circuit in
          let e = Eps.estimate compiled in
          Printf.printf "  %-6d %-16s %-10.4f %-10.4f %-10.4f %-12.0f\n" circuit.Circuit.n
            strategy.Strategy.name e.Eps.gate_eps e.Eps.coherence_eps e.Eps.total_eps
            e.Eps.duration_ns)
        fig7_strategies;
      print_newline ())
    eps_sizes;
  subheader "EPS-based improvement over qubit-only at the largest size";
  let n = List.fold_left max 5 eps_sizes in
  let circuit = circuit_of Bench_circuits.Cnu n in
  let eps s = (Eps.estimate (Compile.compile s circuit)).Eps.total_eps in
  let base = eps Strategy.qubit_only in
  List.iter
    (fun (s : Strategy.t) ->
      if s.Strategy.name <> "qubit-only" then
        Printf.printf "  %-16s %.2fx\n" s.Strategy.name (eps s /. base))
    fig7_strategies

(* ---------------- Fig. 9a: CSWAP case study ---------------- *)

let fig9a () =
  header "Fig. 9a: CSWAP orientation case study on QRAM";
  let strategies =
    [ Strategy.qubit_only;
      Strategy.qubit_itoffoli;
      Strategy.mixed_radix_ccz;
      Strategy.mixed_radix_cswap;
      Strategy.full_ququart;
      Strategy.full_ququart_cswap;
      Strategy.full_ququart_cswap_oriented ]
  in
  Printf.printf "  %-6s" "n";
  List.iter (fun (s : Strategy.t) -> Printf.printf " %-18s" s.Strategy.name) strategies;
  print_newline ();
  List.iter
    (fun n ->
      let circuit = circuit_of Bench_circuits.Qram n in
      Printf.printf "  %-6d" circuit.Circuit.n;
      List.iter
        (fun strategy ->
          let f, _ = simulate strategy circuit in
          Printf.printf " %-18s" (Printf.sprintf "%.3f" f))
        strategies;
      print_newline ())
    sim_sizes

(* ---------------- Fig. 9b: gate-error sensitivity ---------------- *)

let sensitivity_strategies =
  [ Strategy.qubit_only; Strategy.qubit_itoffoli; Strategy.mixed_radix_ccz;
    Strategy.full_ququart ]

let fig9b () =
  header "Fig. 9b: sensitivity to ququart gate error (Cuccaro adder)";
  let n = sens_n in
  let circuit = circuit_of Bench_circuits.Cuccaro n in
  let scales = [ 1.; 2.; 3.; 4.; 6. ] in
  Printf.printf "  (n = %d)\n  %-8s" circuit.Circuit.n "scale";
  List.iter (fun (s : Strategy.t) -> Printf.printf " %-16s" s.Strategy.name)
    sensitivity_strategies;
  print_newline ();
  List.iter
    (fun scale ->
      Printf.printf "  %-8.1f" scale;
      List.iter
        (fun strategy ->
          let model = { Noise.default with Noise.ww_error_scale = scale } in
          let f, _ = simulate ~model ~traj:(3 * trajectories) strategy circuit in
          Printf.printf " %-16s" (Printf.sprintf "%.3f" f))
        sensitivity_strategies;
      print_newline ())
    scales;
  Printf.printf "  (qubit-only and iToffoli use no ww pulses: flat lines, as in the paper)\n"

(* ---------------- Fig. 9c: coherence sensitivity ---------------- *)

let fig9c () =
  header "Fig. 9c: sensitivity to |2>/|3> coherence (QRAM)";
  let n = sens_n in
  let circuit = circuit_of Bench_circuits.Qram n in
  let scales = [ 1.; 2.; 4.; 8.; 16. ] in
  Printf.printf "  (n = %d; scale divides the T1 of levels 2 and 3)\n  %-8s" circuit.Circuit.n
    "scale";
  List.iter (fun (s : Strategy.t) -> Printf.printf " %-16s" s.Strategy.name)
    sensitivity_strategies;
  print_newline ();
  List.iter
    (fun scale ->
      Printf.printf "  %-8.1f" scale;
      List.iter
        (fun strategy ->
          let model = { Noise.default with Noise.t1_high_scale = scale } in
          let f, _ = simulate ~model ~traj:(3 * trajectories) strategy circuit in
          Printf.printf " %-16s" (Printf.sprintf "%.3f" f))
        sensitivity_strategies;
      print_newline ())
    scales

(* ---------------- Fig. 9d: CX/CCX ratio ---------------- *)

let fig9d () =
  header "Fig. 9d: fidelity vs fraction of CX gates (synthetic circuit)";
  let n = sens_n in
  let gates = 4 * n in
  let fractions = [ 0.; 0.2; 0.4; 0.6; 0.8; 1. ] in
  Printf.printf "  (n = %d, %d multi-qubit gates)\n  %-8s" n gates "%CX";
  List.iter (fun (s : Strategy.t) -> Printf.printf " %-16s" s.Strategy.name)
    sensitivity_strategies;
  print_newline ();
  List.iter
    (fun frac ->
      let circuit = Bench_circuits.synthetic ~n ~gates ~cx_fraction:frac ~seed:42 in
      Printf.printf "  %-8.0f" (frac *. 100.);
      List.iter
        (fun strategy ->
          let f, _ = simulate ~traj:(3 * trajectories) strategy circuit in
          Printf.printf " %-16s" (Printf.sprintf "%.3f" f))
        sensitivity_strategies;
      print_newline ())
    fractions

(* ---------------- Pulse synthesis demonstration ---------------- *)

let pulses () =
  header "Pulse synthesis (Juqbox substitute): direct-to-pulse gates";
  let open Waltz_control in
  subheader "X gate on one transmon (3 levels simulated)";
  let spec1 = Transmon.paper_spec ~n:1 ~levels:[| 3 |] in
  let report, _ =
    Synthesis.synthesize ~seed:5 ~restarts:1 ~iters:pulse_iters ~spec:spec1
      ~target:Synthesis.x_target ~logical_levels:[| 2 |] ~duration_ns:35. ~segments:140 ()
  in
  Printf.printf "  duration %.0f ns -> F = %.4f, leakage %.4f (paper: 35 ns @ 0.999)\n"
    report.Synthesis.duration_ns report.Synthesis.fidelity report.Synthesis.leakage;
  subheader "H(x)H on one ququart (5 levels simulated, 1 guard)";
  (* Addressing the anharmonic 1-2 and 2-3 transitions needs sub-ns envelope
     resolution: dt = 0.25 ns. *)
  let spec4 = Transmon.paper_spec ~n:1 ~levels:[| 5 |] in
  let report, _ =
    Synthesis.synthesize ~seed:11 ~restarts:1 ~iters:(2 * pulse_iters) ~spec:spec4
      ~target:Synthesis.hh_target ~logical_levels:[| 4 |] ~duration_ns:90. ~segments:360 ()
  in
  Printf.printf "  duration %.0f ns -> F = %.4f, leakage %.4f (cf. Fig. 2: F_HH ~ 0.960)\n"
    report.Synthesis.duration_ns report.Synthesis.fidelity report.Synthesis.leakage;
  subheader "open-system check (the Sec. 3.3 caveat, via Lindblad evolution)";
  let _, x_pulse =
    Synthesis.synthesize ~seed:5 ~restarts:1 ~iters:(pulse_iters / 2) ~spec:spec1
      ~target:Synthesis.x_target ~logical_levels:[| 2 |] ~duration_ns:35. ~segments:70 ()
  in
  List.iter
    (fun t1 ->
      let f =
        Lindblad.average_fidelity spec1 x_pulse ~target:Synthesis.x_target
          ~logical_levels:[| 2 |] ~t1_ns:t1 ~samples:4 ~seed:3
      in
      Printf.printf "  X pulse under T1 = %6.1f us -> open-system F = %.4f\n" (t1 /. 1000.) f)
    [ 163_450.; 16_345. ];
  subheader "CZ_2 between two coupled transmons (3+3 levels, J = 3.8 MHz)";
  let spec2 = Transmon.paper_spec ~n:2 ~levels:[| 3; 3 |] in
  let report, _ =
    Synthesis.synthesize ~seed:7 ~restarts:1 ~iters:(5 * pulse_iters / 4) ~spec:spec2
      ~target:Gates.cz ~logical_levels:[| 2; 2 |] ~duration_ns:236. ~segments:472 ()
  in
  Printf.printf "  duration %.0f ns -> F = %.4f, leakage %.4f (paper: 236 ns @ 0.99)\n"
    report.Synthesis.duration_ns report.Synthesis.fidelity report.Synthesis.leakage;
  subheader "carrier-wave ansatz (Juqbox-style, ref. [47]): H(x)H with 270 params";
  let carrier =
    Carrier.create ~n_lines:1 ~carriers:[| 0.; -0.330; -0.660 |] ~n_env:45 ~fine_per_env:8
      ~duration_ns:90. ~max_amp_ghz:0.045
  in
  Carrier.randomize (Rng.make ~seed:5) ~scale:0.5 carrier;
  let robj =
    { Grape.spec = spec4; target = Synthesis.hh_target; logical_levels = [| 4 |];
      leak_weight = 0.1 }
  in
  let r = Carrier.optimize ~iters:(5 * pulse_iters / 4) robj carrier in
  Printf.printf "  %d params (vs %d raw) -> F = %.4f, leakage %.4f\n"
    (Carrier.param_count carrier) (2 * 360) r.Grape.final.Grape.fidelity
    r.Grape.final.Grape.leakage;
  subheader "iterative duration shrinking (re-seeded, ref. [51])";
  let reports =
    Synthesis.shrink_duration ~seed:5 ~iters:(pulse_iters / 2) ~spec:spec1
      ~target:Synthesis.x_target ~logical_levels:[| 2 |] ~start_duration_ns:60. ~segments:120
      ~target_fidelity:0.999 ()
  in
  List.iter
    (fun (r : Synthesis.report) ->
      Printf.printf "  T = %5.1f ns -> F = %.4f\n" r.Synthesis.duration_ns
        r.Synthesis.fidelity)
    reports

(* ---------------- Ablations of the compiler's design choices ---------------- *)

let ablations () =
  header "Ablations: disruption-aware routing, slot choreography, peephole pass";
  let circuits =
    [ ("CNU-9", circuit_of Bench_circuits.Cnu 9);
      ("Cuccaro-8", circuit_of Bench_circuits.Cuccaro 9);
      ("QRAM-9", circuit_of Bench_circuits.Qram 9) ]
  in
  let variants strategy =
    [ strategy;
      Strategy.ablate ~disruption:false strategy;
      Strategy.ablate ~choreography:false strategy ]
  in
  List.iter
    (fun (label, circuit) ->
      subheader label;
      Printf.printf "  %-40s %8s %12s %10s\n" "variant" "2-dev" "duration" "totalEPS";
      List.iter
        (fun base ->
          List.iter
            (fun strategy ->
              let compiled = Compile.compile strategy circuit in
              let e = Eps.estimate compiled in
              Printf.printf "  %-40s %8d %9.0f ns %10.4f\n" strategy.Strategy.name
                (Physical.two_device_op_count compiled)
                e.Eps.duration_ns e.Eps.total_eps)
            (variants base))
        [ Strategy.mixed_radix_cswap; Strategy.full_ququart ])
    circuits;
  subheader "peephole optimizer (Optimizer.simplify) on a redundant circuit";
  let noisy_circuit =
    (* A Grover iteration surrounded by gates that partially cancel. *)
    let g = Bench_circuits.grover ~address_bits:3 ~marked:5 ~iterations:1 in
    let pad =
      Circuit.of_gates ~n:g.Circuit.n
        [ Gate.make Gate.T [ 0 ]; Gate.make Gate.T [ 0 ]; Gate.make Gate.H [ 1 ];
          Gate.make Gate.H [ 1 ]; Gate.make (Gate.Rz 0.4) [ 2 ];
          Gate.make (Gate.Rz (-0.4)) [ 2 ] ]
    in
    Circuit.append pad g
  in
  let simplified, stats = Optimizer.simplify_with_stats noisy_circuit in
  Printf.printf "  gates: %d -> %d (removed %d, fused %d)\n"
    (Circuit.gate_count noisy_circuit) (Circuit.gate_count simplified)
    stats.Optimizer.removed stats.Optimizer.fused;
  List.iter
    (fun (label, c) ->
      let compiled = Compile.compile Strategy.mixed_radix_ccz c in
      let e = Eps.estimate compiled in
      Printf.printf "  %-12s duration %8.0f ns, total EPS %.4f\n" label e.Eps.duration_ns
        e.Eps.total_eps)
    [ ("raw", noisy_circuit); ("simplified", simplified) ]

(* ---------------- Resynthesis (the paper's Sec. 7.4 future work) ---------------- *)

let resynth () =
  header "Resynthesis: recovering three-qubit gates from two-qubit circuits";
  Printf.printf
    "(Sec. 7.4: 'we can use resynthesis tools to automatically insert\n three-qubit gates into the circuit')\n";
  let n = List.fold_left max 5 sim_sizes in
  let circuits =
    [ ("CNU", circuit_of Bench_circuits.Cnu n); ("Cuccaro", circuit_of Bench_circuits.Cuccaro n) ]
  in
  List.iter
    (fun (label, original) ->
      subheader label;
      let decomposed = Decompose.pre Strategy.qubit_only original in
      let rerolled, stats = Resynthesis.reroll_with_stats decomposed in
      let _, two_d, three_d = Circuit.count_by_arity decomposed in
      let _, two_r, three_r = Circuit.count_by_arity rerolled in
      Printf.printf
        "  CX-only form: %d 2q / %d 3q gates -> rerolled: %d 2q / %d 3q (%d three-qubit rerolls)\n"
        two_d three_d two_r three_r stats.Resynthesis.rerolled_3q;
      List.iter
        (fun (form, circuit) ->
          let compiled = Compile.compile Strategy.full_ququart circuit in
          let e = Eps.estimate compiled in
          Printf.printf "  full-ququart on %-12s duration %8.0f ns, total EPS %.4f\n" form
            e.Eps.duration_ns e.Eps.total_eps)
        [ ("CX-only", decomposed); ("rerolled", rerolled) ])
    circuits

(* ---------------- Bechamel micro-benchmarks ---------------- *)

(* Trajectories per run of the fig9/trajectory-throughput kernel; the JSON
   report divides by the measured time to get trajectories/sec. *)
let throughput_trajectories = 8

(* The kernel-mix program ({!Kernel_mix}), guarded against classifier
   drift: its placed kernels must keep covering every class, or the
   benchmark silently stops measuring what it names. *)
let kernel_mix_program =
  lazy
    begin
      let program = Kernel_mix.program () in
      let placed = (Executor.place program).Executor.kernels in
      List.iter
        (fun cls ->
          if not (Array.exists (fun k -> Waltz_sim.Kernel.class_name k = cls) placed) then
            failwith
              (Printf.sprintf "kernel-mix program no longer exercises class %s" cls))
        Waltz_sim.Kernel.classes;
      program
    end

let micro () =
  header "Bechamel micro-benchmarks (one Test.make per table/figure kernel)";
  let open Bechamel in
  (* Every fig7/fig8 entry below must price a *fresh* compilation, so the
     compiled-program cache is held off for the timed section; the hit path
     gets its own fig7/compile-cached entry further down. *)
  Compile.program_cache_clear ();
  Compile.set_program_cache false;
  let toffoli = Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ] in
  let cnu7 = Bench_circuits.cnu ~controls:4 in
  let toffoli_fq = Compile.compile Strategy.full_ququart toffoli in
  let cnu7_fq = Compile.compile Strategy.full_ququart cnu7 in
  (* fig9/plan-build and fig9/plan-model: 17 qubits on full-ququart
     hardware, 9 devices. [plan_program] is compiled once and its kernels
     placed by one warm-up call; each fig9/plan-model run then plans it
     under a model no earlier run used. *)
  let plan_circuit = Bench_circuits.by_total_qubits Bench_circuits.Cnu 17 in
  let plan_program = Compile.compile Strategy.full_ququart plan_circuit in
  let plan_only model program =
    ignore
      (Executor.simulate
         ~config:{ Executor.default_config with Executor.model; trajectories = 0 }
         program)
  in
  plan_only Noise.default plan_program;
  let plan_models = ref 0 in
  (* fig9/kernel-classes: one precompiled kernel per class, applied as a
     one-lane block to a reused state vector. All gates are unitary so the norm survives the
     bechamel repetition loop; each constructor is asserted to land in the
     class it is named for, so the benchmark can't silently drift. *)
  let hh = Mat.kron Gates.h Gates.h in
  let kernel_cases =
    [ ( "diagonal",
        [| 4; 4; 4 |],
        Waltz_sim.Kernel.compile ~dims:[| 4; 4; 4 |] ~targets:[ 0; 1 ]
          (Mat.diag (Array.init 16 (fun i -> Cplx.exp_i (0.1 *. float_of_int i)))) );
      ( "monomial",
        [| 4; 4; 4 |],
        Waltz_sim.Kernel.compile ~dims:[| 4; 4; 4 |] ~targets:[ 0; 1 ]
          (Mat.permutation 16 (fun i -> (i + 5) mod 16)) );
      ( "single_wire",
        [| 4; 4; 4 |],
        Waltz_sim.Kernel.compile ~dims:[| 4; 4; 4 |] ~targets:[ 1 ] hh );
      ( "two_wire",
        [| 4; 4; 4 |],
        Waltz_sim.Kernel.compile ~dims:[| 4; 4; 4 |] ~targets:[ 0; 2 ] (Mat.kron hh hh) );
      ( "generic",
        [| 2; 2; 2; 2 |],
        Waltz_sim.Kernel.compile ~dims:[| 2; 2; 2; 2 |] ~targets:[ 0; 1; 3 ]
          (Mat.kron hh Gates.h) ) ]
  in
  let kernel_tests =
    List.map
      (fun (cls, dims, kernel) ->
        if Waltz_sim.Kernel.class_name kernel <> cls then
          failwith
            (Printf.sprintf "kernel-classes bench: expected %s, compiled to %s" cls
               (Waltz_sim.Kernel.class_name kernel));
        let r = Rng.make ~seed:31 in
        let n = Array.fold_left ( * ) 1 dims in
        let v = Vec.gaussian (fun () -> Rng.gaussian r) n in
        Vec.normalize_in_place v;
        Test.make
          ~name:("fig9/kernel-classes/" ^ cls)
          (Staged.stage (fun () ->
               Waltz_sim.Kernel.apply_block kernel v.Vec.re v.Vec.im ~cap:1 ~live:1)))
      kernel_cases
  in
  (* The same kernels in lockstep over a full-width SoA block: one run does
     [batch_width] lanes of work, so the per-lane cost is ns/run divided by
     the width (the JSON report and doc/PERF.md record both). *)
  let batch_width = Executor.default_batch () in
  let kernel_batched_tests =
    List.map
      (fun (cls, dims, kernel) ->
        let r = Rng.make ~seed:32 in
        let n = Array.fold_left ( * ) 1 dims in
        let blk = Waltz_sim.State_block.create ~dims ~cap:batch_width in
        for k = 0 to batch_width - 1 do
          let v = Vec.gaussian (fun () -> Rng.gaussian r) n in
          Vec.normalize_in_place v;
          Waltz_sim.State_block.write_lane blk k v
        done;
        Test.make
          ~name:("fig9/kernel-classes-batched/" ^ cls)
          (Staged.stage (fun () -> Waltz_sim.State_block.apply_kernel blk kernel)))
      kernel_cases
  in
  let mix_program = Lazy.force kernel_mix_program in
  (* verify/<pass>: one checker pass per Test.make, over a fixed compiled
     benchmark. The JSON report divides by the program's op count to get
     ns/op per pass. *)
  let module Verify = Waltz_verify.Verify in
  let verify_circuit = Bench_circuits.by_total_qubits Bench_circuits.Cuccaro 6 in
  let verify_compiled = Compile.compile Strategy.mixed_radix_ccz verify_circuit in
  let verify_ops = List.length verify_compiled.Physical.ops in
  let verify_tests =
    List.map
      (fun pass ->
        Test.make
          ~name:("verify/" ^ Verify.pass_name pass)
          (Staged.stage (fun () ->
               ignore (Verify.run ~passes:[ pass ] (Some verify_circuit) verify_compiled))))
      Verify.all_passes
  in
  (* resource/certify: the bare certification primitive (no Diagnostic
     wrapping), the figure the admission controller pays per admitted
     program. The JSON report records ns/op plus the certified byte
     figures themselves — deterministic, so drift means the model moved. *)
  let module Resource = Waltz_analysis.Resource in
  let resource_cert = Resource.certify verify_compiled in
  let resource_tests =
    [ Test.make ~name:"resource/certify"
        (Staged.stage (fun () -> ignore (Resource.certify verify_compiled))) ]
  in
  let tests =
    kernel_tests @ kernel_batched_tests @ verify_tests @ resource_tests
    @
    [ Test.make ~name:"table1/calibration-lookup"
        (Staged.stage (fun () -> ignore (Calibration.mr_cx ~control:Qubit ~target:(Slot 0))));
      Test.make ~name:"table2/gate-construction"
        (Staged.stage (fun () ->
             ignore (Ququart_gates.mr_3q Gates.ccz ~operands:[ Slot 0; Slot 1; Qubit ])));
      Test.make ~name:"fig2/rb-sequence"
        (Staged.stage (fun () ->
             let r = Rng.make ~seed:1 in
             ignore (Waltz_sim.Rb.run r ~depths:[ 5 ] ~samples:2 ~error_per_clifford:0.05 ())));
      Test.make ~name:"fig7/compile-mixed-radix"
        (Staged.stage (fun () -> ignore (Compile.compile Strategy.mixed_radix_ccz cnu7)));
      Test.make ~name:"fig7/compile-full-ququart"
        (Staged.stage (fun () -> ignore (Compile.compile Strategy.full_ququart cnu7)));
      Test.make ~name:"fig8/eps-estimate"
        (Staged.stage (fun () ->
             ignore (Eps.estimate (Compile.compile Strategy.full_ququart cnu7))));
      Test.make ~name:"fig9/trajectory-sim"
        (Staged.stage (fun () ->
             ignore
               (Executor.simulate
                  ~config:{ Executor.default_config with Executor.trajectories = 2 }
                  toffoli_fq)));
      Test.make ~name:"fig9/trajectory-mix"
        (Staged.stage (fun () ->
             ignore
               (Executor.simulate
                  ~config:{ Executor.default_config with Executor.trajectories = 2 }
                  mix_program)));
      (* A plan-only call at 9 ququarts. The program cache is off here, so
         each run compiles a new program whose kernel memo starts cold:
         every run prices one compile, the kernel placement and the
         model's tables. *)
      Test.make ~name:"fig9/plan-build"
        (Staged.stage (fun () ->
             plan_only Noise.default (Compile.compile Strategy.full_ququart plan_circuit)));
      (* The same plan-only call on the warm program under a fresh model:
         the kernels come from the memo, so a run prices the model's error
         probabilities and damping tables only. *)
      Test.make ~name:"fig9/plan-model"
        (Staged.stage (fun () ->
             incr plan_models;
             plan_only
               { Noise.default with
                 Noise.ww_error_scale = 1. +. (1e-9 *. float_of_int !plan_models) }
               plan_program));
      Test.make ~name:"fig9/trajectory-throughput"
        (Staged.stage (fun () ->
             ignore
               (Executor.simulate
                  ~config:
                    { Executor.default_config with
                      Executor.trajectories = throughput_trajectories }
                  cnu7_fq))) ]
  in
  let measured = ref [] in
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.25) ~kde:None () in
      let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
      Hashtbl.iter
        (fun name (b : Benchmark.t) ->
          let total_time = ref 0. and total_runs = ref 0. in
          Array.iter
            (fun raw ->
              total_time := !total_time +. Measurement_raw.get ~label:"monotonic-clock" raw;
              total_runs := !total_runs +. Measurement_raw.run raw)
            b.Benchmark.lr;
          let ns_per_run = !total_time /. Float.max 1. !total_runs in
          measured := (name, ns_per_run) :: !measured;
          Printf.printf "  %-30s %14.0f ns/run (%d samples)\n" name ns_per_run
            (Array.length b.Benchmark.lr))
        results)
    tests;
  (* Machine-readable perf trajectory, one file per run (see make bench-json). *)
  let measured = List.rev !measured in
  let domains = Waltz_runtime.Pool.default_domains () in
  let traj_per_sec =
    match List.assoc_opt "fig9/trajectory-throughput" measured with
    | Some ns when ns > 0. -> float_of_int throughput_trajectories /. (ns *. 1e-9)
    | _ -> 0.
  in
  (* One instrumented re-run of the throughput kernel (outside the timed
     section, so the numbers above stay telemetry-free) gives the report
     its cache hit-rates and pool utilization. *)
  let module Telemetry = Waltz_telemetry.Telemetry in
  Telemetry.reset ();
  Telemetry.enable ();
  ignore
    (Executor.simulate
       ~config:
         { Executor.default_config with Executor.trajectories = throughput_trajectories }
       cnu7_fq);
  (* The mix program puts two_wire and generic dispatches on the fig9
     path, so the histogram below measures every class where it matters. *)
  ignore
    (Executor.simulate
       ~config:
         { Executor.default_config with Executor.trajectories = throughput_trajectories }
       mix_program);
  Telemetry.disable ();
  let offered = Telemetry.Metrics.counter "pool.seats.offered" in
  let joined = Telemetry.Metrics.counter "pool.seats.joined" in
  let stolen = Telemetry.Metrics.counter "pool.items.stolen" in
  let pool_util =
    if offered = 0 then 1.0 else float_of_int joined /. float_of_int offered
  in
  let memo_hits = Telemetry.Metrics.counter "executor.kernel_memo.hit" in
  let memo_misses = Telemetry.Metrics.counter "executor.kernel_memo.miss" in
  let batch_blocks = Telemetry.Metrics.counter "executor.batch.blocks" in
  let batch_lane_windows = Telemetry.Metrics.counter "executor.batch.lane_windows" in
  let batch_mask_divergence = Telemetry.Metrics.counter "executor.batch.mask_divergence" in
  let mask_divergence_rate =
    if batch_lane_windows = 0 then 0.
    else float_of_int batch_mask_divergence /. float_of_int batch_lane_windows
  in
  (* Sanitizer overhead on the fig9/trajectory-sim kernel, measured outside
     the timed section above: the disabled number prices the always-on shim
     branches (one Atomic load per instrumented point), the enabled number
     prices full vector-clock recording. *)
  let module Sanitize = Waltz_sanitizer.Sanitize in
  let measure_one test =
    let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.25) ~kde:None () in
    let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
    let ns = ref 0. in
    Hashtbl.iter
      (fun _ (b : Benchmark.t) ->
        let total_time = ref 0. and total_runs = ref 0. in
        Array.iter
          (fun raw ->
            total_time := !total_time +. Measurement_raw.get ~label:"monotonic-clock" raw;
            total_runs := !total_runs +. Measurement_raw.run raw)
          b.Benchmark.lr;
        ns := !total_time /. Float.max 1. !total_runs)
      results;
    !ns
  in
  let traj_test name =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore
             (Executor.simulate
                ~config:{ Executor.default_config with Executor.trajectories = 2 }
                toffoli_fq)))
  in
  Sanitize.disable ();
  Sanitize.reset ();
  let sanitize_off = measure_one (traj_test "sanitize/trajectory-sim-off") in
  Sanitize.enable ();
  let sanitize_on = measure_one (traj_test "sanitize/trajectory-sim-on") in
  Sanitize.disable ();
  let sanitize_accesses = (Sanitize.stats ()).Waltz_sanitizer.Sanitize.accesses in
  let sanitize_findings = List.length (Sanitize.findings ()) in
  Sanitize.reset ();
  let sanitize_overhead_pct =
    if sanitize_off > 0. then 100. *. ((sanitize_on /. sanitize_off) -. 1.) else 0.
  in
  Printf.printf "  %-30s %14.0f ns/run\n" "sanitize/trajectory-sim-off" sanitize_off;
  Printf.printf "  %-30s %14.0f ns/run (%+.1f%%, %d accesses, %d findings)\n"
    "sanitize/trajectory-sim-on" sanitize_on sanitize_overhead_pct sanitize_accesses
    sanitize_findings;
  (* Class-dispatch histogram of the instrumented throughput run: how many
     per-trajectory gate applications each specialized path absorbed. *)
  let kernel_dispatch =
    List.map
      (fun cls -> (cls, Telemetry.Metrics.counter ("executor.kernel_dispatch." ^ cls)))
      Waltz_sim.Kernel.classes
  in
  (* Observability-plane overhead on the same kernel: flight recorder AND
     the metrics flag both on (the always-on plane a daemon runs with, and
     all that --stats/--trace turn on), measured against both off. The
     acceptance bar is <= 5 %. The two configurations are
     interleaved and each takes the minimum over several segments: the
     overhead is ~150 ns on a ~4 us kernel, smaller than the drift of CPU
     frequency scaling between two back-to-back quota runs, and min-of-
     interleaved-segments cancels that drift where sequential quotas bake
     it into the ratio. Runs after every counter above has been captured,
     since it resets telemetry. *)
  let module Recorder = Waltz_telemetry.Recorder in
  let obs_off, obs_on =
    let config = { Executor.default_config with Executor.trajectories = 2 } in
    let runs = 30_000 in
    let time_segment () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to runs do
        ignore (Executor.simulate ~config toffoli_fq)
      done;
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int runs
    in
    ignore (time_segment ());
    let best_off = ref infinity and best_on = ref infinity in
    for _ = 1 to 10 do
      Telemetry.disable ();
      Telemetry.reset ();
      Recorder.disarm ();
      Recorder.reset ();
      let off = time_segment () in
      if off < !best_off then best_off := off;
      Telemetry.enable_metrics ();
      Recorder.arm ();
      let on_ = time_segment () in
      if on_ < !best_on then best_on := on_
    done;
    Recorder.disarm ();
    Telemetry.disable ();
    Telemetry.reset ();
    Recorder.reset ();
    (!best_off, !best_on)
  in
  let obs_overhead_pct =
    if obs_off > 0. then 100. *. ((obs_on /. obs_off) -. 1.) else 0.
  in
  Printf.printf "  %-30s %14.0f ns/run\n" "observability/trajectory-sim-off" obs_off;
  Printf.printf "  %-30s %14.0f ns/run (%+.1f%%, recorder + metrics on)\n"
    "observability/trajectory-sim-on" obs_on obs_overhead_pct;
  (* Compile-side profile on the fig7/compile-mixed-radix kernel: the
     program-cache hit path, then per-phase span aggregates and routing
     counters from an instrumented (telemetry-on) loop outside the timed
     section, so the fig7 numbers above stay telemetry-free. All of it
     lands in ns_per_run as well, so `waltz_cli report --baseline` gates
     the phases and the cached path alongside the end-to-end compiles. *)
  let compile_fresh_ns =
    Option.value ~default:0. (List.assoc_opt "fig7/compile-mixed-radix" measured)
  in
  Compile.set_program_cache true;
  Compile.program_cache_clear ();
  let compile_cached_ns =
    measure_one
      (Test.make ~name:"fig7/compile-cached"
         (Staged.stage (fun () -> ignore (Compile.compile Strategy.mixed_radix_ccz cnu7))))
  in
  Compile.set_program_cache false;
  Compile.program_cache_clear ();
  Printf.printf "  %-30s %14.0f ns/run (program-cache hit path)\n" "fig7/compile-cached"
    compile_cached_ns;
  let phase_reps = 200 in
  Telemetry.reset ();
  Telemetry.enable ();
  (* Span totals from the loop's time window over the rings; raises if a
     ring overwrote events of the window, which would make the phase times
     short. *)
  let (), phase_aggregates =
    Telemetry.Span.aggregate_during (fun () ->
        for _ = 1 to phase_reps do
          ignore (Compile.compile Strategy.mixed_radix_ccz cnu7)
        done)
  in
  let router_steps = Telemetry.Metrics.counter "compile.router_steps" in
  let bfs_calls = Telemetry.Metrics.counter "compile.bfs_calls" in
  let phase_ns name =
    match
      List.find_opt
        (fun (a : Telemetry.Span.aggregate) -> a.Telemetry.Span.agg_name = name)
        phase_aggregates
    with
    | Some a -> a.Telemetry.Span.total_us *. 1000. /. float_of_int phase_reps
    | None -> 0.
  in
  let compile_phases =
    List.map
      (fun phase -> (phase, phase_ns ("compile/" ^ phase)))
      [ "map"; "route"; "choreograph"; "schedule" ]
  in
  Telemetry.reset ();
  (* Short cache-on probe for the hit/miss counters: one miss fills the
     cache, the two repeats must both hit. *)
  Compile.set_program_cache true;
  Compile.program_cache_clear ();
  for _ = 1 to 3 do
    ignore (Compile.compile Strategy.mixed_radix_ccz cnu7)
  done;
  Telemetry.disable ();
  let cache_hits = Telemetry.Metrics.counter "compile.program_cache.hit" in
  let cache_misses = Telemetry.Metrics.counter "compile.program_cache.miss" in
  Telemetry.reset ();
  Compile.set_program_cache false;
  Compile.program_cache_clear ();
  List.iter
    (fun (phase, ns) ->
      Printf.printf "  %-30s %14.0f ns/run\n" ("fig7/compile-phases/" ^ phase) ns)
    compile_phases;
  let measured =
    measured
    @ ("fig7/compile-cached", compile_cached_ns)
      :: List.map (fun (p, ns) -> ("fig7/compile-phases/" ^ p, ns)) compile_phases
  in
  (* The executor's ceiling at 10 and 11 ququarts: the wall time of one
     trajectory at batch 1 on one domain, after a plan-only call has cached
     the plan, and the certified per-domain workspace at batch 8. One
     sample each, so they stay out of ns_per_run and the Regress gate. Run
     last: the 11-ququart workspace stays with this domain. *)
  let ceiling =
    List.map
      (fun total ->
        let compiled =
          Compile.compile Strategy.full_ququart
            (Bench_circuits.by_total_qubits Bench_circuits.Cnu total)
        in
        let run trajectories =
          ignore
            (Executor.simulate
               ~config:{ Executor.default_config with Executor.trajectories }
               ~batch:1 ~domains:1 compiled)
        in
        run 0;
        let t0 = Unix.gettimeofday () in
        run 1;
        let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
        let cert = Resource.certify ~trajectories:8 ~batch:8 compiled in
        let devices = compiled.Physical.device_count in
        Printf.printf "  %-30s %14.0f ms/trajectory (workspace at batch 8: %d bytes)\n"
          (Printf.sprintf "ceiling/%d-ququarts" devices)
          ms cert.Resource.block_workspace_bytes;
        (devices, ms, cert.Resource.block_workspace_bytes))
      [ 19; 21 ]
  in
  let oc = open_out "BENCH_micro.json" in
  Printf.fprintf oc "{\n  \"domains\": %d,\n" domains;
  Printf.fprintf oc "  \"throughput_trajectories\": %d,\n" throughput_trajectories;
  Printf.fprintf oc "  \"trajectories_per_sec\": %.1f,\n" traj_per_sec;
  Printf.fprintf oc "  \"batch\": {\n";
  Printf.fprintf oc "    \"width\": %d,\n" batch_width;
  Printf.fprintf oc "    \"blocks\": %d,\n" batch_blocks;
  Printf.fprintf oc "    \"lane_windows\": %d,\n" batch_lane_windows;
  Printf.fprintf oc "    \"mask_divergence_rate\": %.4f\n" mask_divergence_rate;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"telemetry\": {\n";
  Printf.fprintf oc "    \"pool_seats_offered\": %d,\n" offered;
  Printf.fprintf oc "    \"pool_seats_joined\": %d,\n" joined;
  Printf.fprintf oc "    \"pool_items_stolen\": %d,\n" stolen;
  Printf.fprintf oc "    \"pool_utilization\": %.4f,\n" pool_util;
  Printf.fprintf oc "    \"kernel_memo_hits\": %d,\n" memo_hits;
  Printf.fprintf oc "    \"kernel_memo_misses\": %d,\n" memo_misses;
  Printf.fprintf oc "    \"kernel_dispatch\": {\n";
  List.iteri
    (fun i (cls, count) ->
      Printf.fprintf oc "      %S: %d%s\n" cls count
        (if i = List.length kernel_dispatch - 1 then "" else ","))
    kernel_dispatch;
  Printf.fprintf oc "    }\n";
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"verify\": {\n";
  Printf.fprintf oc "    \"benchmark\": \"cuccaro-6/mr-ccz\",\n";
  Printf.fprintf oc "    \"ops_checked\": %d,\n" verify_ops;
  Printf.fprintf oc "    \"ns_per_op\": {\n";
  List.iteri
    (fun i pass ->
      let name = Verify.pass_name pass in
      let ns =
        match List.assoc_opt ("verify/" ^ name) measured with
        | Some ns -> ns /. float_of_int (max 1 verify_ops)
        | None -> 0.
      in
      Printf.fprintf oc "      %S: %.1f%s\n" name ns
        (if i = List.length Verify.all_passes - 1 then "" else ","))
    Verify.all_passes;
  Printf.fprintf oc "    }\n";
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"sanitize\": {\n";
  Printf.fprintf oc "    \"benchmark\": \"fig9/trajectory-sim\",\n";
  Printf.fprintf oc "    \"disabled_ns_per_run\": %.1f,\n" sanitize_off;
  Printf.fprintf oc "    \"enabled_ns_per_run\": %.1f,\n" sanitize_on;
  Printf.fprintf oc "    \"overhead_pct\": %.2f,\n" sanitize_overhead_pct;
  Printf.fprintf oc "    \"instrumented_accesses\": %d,\n" sanitize_accesses;
  Printf.fprintf oc "    \"findings\": %d\n" sanitize_findings;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"observability\": {\n";
  Printf.fprintf oc "    \"benchmark\": \"fig9/trajectory-sim\",\n";
  Printf.fprintf oc "    \"disabled_ns_per_run\": %.1f,\n" obs_off;
  Printf.fprintf oc "    \"enabled_ns_per_run\": %.1f,\n" obs_on;
  Printf.fprintf oc "    \"overhead_pct\": %.2f\n" obs_overhead_pct;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"compile\": {\n";
  Printf.fprintf oc "    \"benchmark\": \"fig7/compile-mixed-radix (cnu-7, mr-ccz)\",\n";
  Printf.fprintf oc "    \"fresh_ns_per_run\": %.1f,\n" compile_fresh_ns;
  Printf.fprintf oc "    \"cached_ns_per_run\": %.1f,\n" compile_cached_ns;
  Printf.fprintf oc "    \"phases_ns_per_run\": {\n";
  List.iteri
    (fun i (phase, ns) ->
      Printf.fprintf oc "      %S: %.1f%s\n" phase ns
        (if i = List.length compile_phases - 1 then "" else ","))
    compile_phases;
  Printf.fprintf oc "    },\n";
  Printf.fprintf oc "    \"router_steps_per_compile\": %.1f,\n"
    (float_of_int router_steps /. float_of_int phase_reps);
  Printf.fprintf oc "    \"bfs_calls_per_compile\": %.1f,\n"
    (float_of_int bfs_calls /. float_of_int phase_reps);
  Printf.fprintf oc "    \"program_cache_hits\": %d,\n" cache_hits;
  Printf.fprintf oc "    \"program_cache_misses\": %d\n" cache_misses;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"resource\": {\n";
  Printf.fprintf oc "    \"benchmark\": \"cuccaro-6/mr-ccz\",\n";
  Printf.fprintf oc "    \"ops\": %d,\n" resource_cert.Resource.ops;
  Printf.fprintf oc "    \"certify_ns_per_op\": %.1f,\n"
    (match List.assoc_opt "resource/certify" measured with
    | Some ns -> ns /. float_of_int (max 1 resource_cert.Resource.ops)
    | None -> 0.);
  Printf.fprintf oc "    \"peak_bytes\": %d,\n" resource_cert.Resource.peak_bytes;
  Printf.fprintf oc "    \"cache_bytes\": %d,\n" resource_cert.Resource.cache_bytes;
  Printf.fprintf oc "    \"plan_bytes\": %d\n" resource_cert.Resource.plan_bytes;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"ceiling\": {\n";
  Printf.fprintf oc
    "    \"benchmark\": \"cnu, full-ququart: one trajectory at batch 1 on one domain; \
     certified workspace at batch 8\",\n";
  List.iteri
    (fun i (devices, ms, bytes) ->
      Printf.fprintf oc
        "    \"%d\": { \"trajectory_ms\": %.1f, \"workspace_bytes_batch8\": %d }%s\n"
        devices ms bytes
        (if i = List.length ceiling - 1 then "" else ","))
    ceiling;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"ns_per_run\": {\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "    %S: %.1f%s\n" name ns
        (if i = List.length measured - 1 then "" else ","))
    measured;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Printf.printf "\n  wrote BENCH_micro.json (%d domains, %.1f trajectories/sec)\n" domains
    traj_per_sec;
  (* Regression trail: append the fresh record (compacted to one line, with
     a UTC timestamp) to BENCH_history.jsonl so trends survive the next
     overwrite of BENCH_micro.json. `waltz_cli report --baseline` gates on
     the committed baseline; the history file is the long-term memory. *)
  let record =
    let ic = open_in "BENCH_micro.json" in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    String.concat " "
      (List.filter_map
         (fun line ->
           match String.trim line with "" -> None | t -> Some t)
         (String.split_on_char '\n' contents))
  in
  let tm = Unix.gmtime (Unix.time ()) in
  let ts =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
  in
  let hc = open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_history.jsonl" in
  Printf.fprintf hc "{\"ts\": \"%s\", \"record\": %s}\n" ts record;
  close_out hc;
  Printf.printf "  appended %s to BENCH_history.jsonl\n" ts;
  (* Hand the cache back enabled, its initial state, for any later section. *)
  Compile.set_program_cache true

(* ---------------- Smoke (lint-gated) ---------------- *)

(* Fast correctness gate for `make bench-smoke` and the lint alias: every
   kernel [Executor.place] compiles for a spread of benchmark programs must
   agree with [State.apply] of the op's lift on a random state (one-lane
   and multi-lane blocks, and a block laid over planes longer than it needs),
   and a tiny simulate must be bit-identical across the domains x batch
   grid, run on workspace planes kept from a larger register. Exits
   non-zero on the first discrepancy, so a broken specialization fails
   `make lint` before any timed run can record nonsense. *)
let smoke () =
  let module Telemetry = Waltz_telemetry.Telemetry in
  header "Kernel smoke checks (lint gate)";
  let failures = ref 0 in
  let toffoli = Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ] in
  let cnu5 = Bench_circuits.cnu ~controls:2 in
  let programs =
    [ Compile.compile Strategy.full_ququart toffoli;
      Compile.compile Strategy.mixed_radix_ccz cnu5;
      Compile.compile Strategy.qubit_only toffoli;
      Lazy.force kernel_mix_program ]
  in
  let r = Rng.make ~seed:97 in
  let checked = ref 0 in
  List.iter
    (fun (compiled : Physical.t) ->
      let device_dim = compiled.Physical.device_dim in
      let placement = Executor.place compiled in
      let dims = placement.Executor.dims in
      List.iteri
        (fun i (op : Physical.op) ->
          let devices, lifted = Executor.lift_gate ~device_dim op in
          let kernel = placement.Executor.kernels.(i) in
          let state = Waltz_sim.State.random r ~dims in
          let reference =
            Waltz_sim.State.of_vec ~dims (Waltz_sim.State.amplitudes state)
          in
          let v = Vec.copy (Waltz_sim.State.amplitudes state) in
          Waltz_sim.Kernel.apply_block kernel v.Vec.re v.Vec.im ~cap:1 ~live:1;
          Waltz_sim.State.apply reference ~targets:devices lifted;
          let vr = Waltz_sim.State.amplitudes reference in
          let diff = ref 0. in
          for i = 0 to Vec.dim v - 1 do
            diff := Float.max !diff (Float.abs (v.Vec.re.(i) -. vr.Vec.re.(i)));
            diff := Float.max !diff (Float.abs (v.Vec.im.(i) -. vr.Vec.im.(i)))
          done;
          incr checked;
          if !diff > 1e-12 then begin
            incr failures;
            Printf.printf "  FAIL %s (%s): kernel disagrees with the lift by %g\n"
              op.Physical.label
              (Waltz_sim.Kernel.class_name kernel)
              !diff
          end;
          (* A wider block must not just agree — every lane must be
             bit-identical to the one-lane application, including a
             partial trailing block (live < cap). *)
          let two_lanes blk =
            Waltz_sim.State_block.set_live blk 2;
            for k = 0 to 1 do
              Waltz_sim.State_block.write_lane blk k (Waltz_sim.State.amplitudes state)
            done;
            Waltz_sim.State_block.apply_kernel blk kernel;
            blk
          in
          let same_lanes blk (w : Vec.t) =
            let exact = ref true in
            for k = 0 to 1 do
              let lane = Waltz_sim.State_block.read_lane blk k in
              for i = 0 to Vec.dim w - 1 do
                if
                  (not (Float.equal lane.Vec.re.(i) w.Vec.re.(i)))
                  || not (Float.equal lane.Vec.im.(i) w.Vec.im.(i))
                then exact := false
              done
            done;
            !exact
          in
          let fail what =
            incr failures;
            Printf.printf "  FAIL %s (%s): %s\n" op.Physical.label
              (Waltz_sim.Kernel.class_name kernel)
              what
          in
          let blk = two_lanes (Waltz_sim.State_block.create ~dims ~cap:3) in
          if not (same_lanes blk v) then fail "batched kernel is not bit-identical";
          (* A domain's workspace keeps its planes from larger registers: a
             block over longer planes, stale values throughout, must match
             the exact-size block bit for bit. *)
          let len = (Vec.dim v * 3) + 11 in
          let long =
            two_lanes
              (Waltz_sim.State_block.of_planes ~dims ~cap:3 (Array.make len nan)
                 (Array.make len nan))
          in
          if not (same_lanes long (Waltz_sim.State_block.read_lane blk 0)) then
            fail "block over longer planes is not bit-identical")
        compiled.Physical.ops)
    programs;
  Printf.printf
    "  kernel-vs-lift: %d plan ops checked (one-lane, batched, longer planes)\n"
    !checked;
  let config = { Executor.model = Noise.default; trajectories = 4; base_seed = 5 } in
  let compiled = Compile.compile Strategy.full_ququart toffoli in
  (* The reference runs before anything larger, on planes of its own size. *)
  let a = Executor.simulate_detailed ~config ~domains:1 ~batch:1 compiled in
  (* A 6-ququart run on both seats, sixteen blocks as wide as the grid's
     widest, so that the grid below lays its blocks over planes and lane
     buffers kept from it. *)
  ignore
    (Executor.simulate_detailed
       ~config:{ config with Executor.trajectories = 64 }
       ~domains:2 ~batch:4
       (Compile.compile Strategy.full_ququart (Bench_circuits.cnu ~controls:6)));
  Telemetry.reset ();
  Telemetry.enable ();
  let same (b : Executor.detailed) =
    Float.equal a.Executor.summary.Executor.mean_fidelity
      b.Executor.summary.Executor.mean_fidelity
    && Float.equal a.Executor.mean_leakage b.Executor.mean_leakage
  in
  List.iter
    (fun (domains, batch) ->
      if same (Executor.simulate_detailed ~config ~domains ~batch compiled) then
        Printf.printf "  batch=1 vs domains=%d/batch=%d: bit-identical\n" domains batch
      else begin
        incr failures;
        Printf.printf "  FAIL: domains=%d/batch=%d diverges from batch=1\n"
          domains batch
      end)
    [ (2, 1); (1, 2); (2, 3); (2, 4) ];
  Printf.printf "  grid workspace growth: %d bytes (0: every seat reused its planes)\n"
    (Telemetry.Metrics.counter "executor.workspace.block_bytes");
  Telemetry.disable ();
  if !failures > 0 then begin
    Printf.printf "smoke: %d failures\n" !failures;
    exit 1
  end;
  Printf.printf "  smoke OK\n"

(* Compile determinism gate for `make compile-smoke` and the lint alias:
   over the benchmark families x sizes x the fig7 strategy set, the
   program cache (miss, hit and eviction paths) and the parallel portfolio
   (compile_all at any domain count) must produce programs byte-identical
   to a fresh serial compile under the canonical hex-float serialization
   (Physical.dump prints floats with %h, so any bit difference shows).
   Exits non-zero on the first divergence, so a cache or portfolio bug
   fails `make lint` before it can contaminate a timed run. *)
let compile_smoke () =
  header "Compile determinism smoke (lint gate)";
  let failures = ref 0 in
  let jobs =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun n ->
            let circuit = Bench_circuits.by_total_qubits family n in
            List.map (fun s -> (s, circuit)) Strategy.fig7_set)
          [ 5; 7; 9; 11; 13 ])
      Bench_circuits.all_families
  in
  let jobs_arr = Array.of_list jobs in
  Compile.set_program_cache false;
  Compile.program_cache_clear ();
  let reference = Array.map (fun (s, c) -> Physical.dump (Compile.compile s c)) jobs_arr in
  let check tag i dump =
    if not (String.equal dump reference.(i)) then begin
      incr failures;
      let (s : Strategy.t), c = jobs_arr.(i) in
      Printf.printf "  FAIL %s: job %d (%s, %d qubits) differs from the fresh serial compile\n"
        tag i s.Strategy.name c.Circuit.n
    end
  in
  (* Cached path, per job: the first compile fills the cache (miss), the
     immediate repeat is served from it (hit) — compiling pairwise keeps
     the hit guaranteed even though the MRU cache is smaller than the job
     list. *)
  Compile.set_program_cache true;
  Compile.program_cache_clear ();
  Array.iteri
    (fun i (s, c) ->
      check "cache-miss" i (Physical.dump (Compile.compile s c));
      check "cache-hit" i (Physical.dump (Compile.compile s c)))
    jobs_arr;
  (* Eviction: the job list in order outgrows the ops budget, then the list
     in reverse meets the programs the cache kept (the same program, ==)
     and then the ones it evicted (compiled again). A second pass in the
     same order would miss on every job, since each insert evicts the
     oldest program, the one the pass needs next. *)
  Compile.program_cache_clear ();
  let first =
    Array.mapi
      (fun i (s, c) ->
        let p = Compile.compile s c in
        check "evict/fill" i (Physical.dump p);
        p)
      jobs_arr
  in
  let kept = ref 0 and evicted = ref 0 in
  for i = Array.length jobs_arr - 1 downto 0 do
    let s, c = jobs_arr.(i) in
    let p = Compile.compile s c in
    if p == first.(i) then incr kept else incr evicted;
    check (if p == first.(i) then "evict/kept" else "evict/evicted") i (Physical.dump p)
  done;
  Printf.printf "  eviction pass: %d programs kept, %d evicted (%d-op budget)\n" !kept !evicted
    Compile.program_cache_budget;
  if !kept = 0 || !evicted = 0 then begin
    incr failures;
    Printf.printf "  FAIL eviction pass: it must meet both kept and evicted programs\n"
  end;
  (* Parallel portfolio: fresh compiles on worker domains, then the same
     fan-out against the shared cache. *)
  Compile.set_program_cache false;
  Compile.program_cache_clear ();
  List.iteri (fun i p -> check "compile_all" i (Physical.dump p)) (Compile.compile_all jobs);
  List.iteri
    (fun i p -> check "compile_all/domains=1" i (Physical.dump p))
    (Compile.compile_all ~domains:1 jobs);
  Compile.set_program_cache true;
  Compile.program_cache_clear ();
  List.iteri
    (fun i p -> check "compile_all/cached" i (Physical.dump p))
    (Compile.compile_all jobs);
  Compile.program_cache_clear ();
  Printf.printf
    "  %d jobs x 7 configurations byte-compared (families x sizes x fig7 strategies)\n"
    (Array.length jobs_arr);
  if !failures > 0 then begin
    Printf.printf "compile-smoke: %d failures\n" !failures;
    exit 1
  end;
  Printf.printf "  compile-smoke OK\n"

(* ---------------- main ---------------- *)

let all_sections =
  [ ("table1", table1);
    ("table2", table2);
    ("fig2", fig2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("fig9c", fig9c);
    ("fig9d", fig9d);
    ("ablations", ablations);
    ("resynth", resynth);
    ("pulses", pulses);
    ("micro", micro);
    ("smoke", smoke);
    ("compile-smoke", compile_smoke) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> begin
      match Sys.getenv_opt "WALTZ_SECTIONS" with
      | Some v -> String.split_on_char ',' v
      | None -> List.map fst all_sections
    end
  in
  Printf.printf "Quantum Waltz reproduction bench (trajectories = %d)\n" trajectories;
  List.iter
    (fun name ->
      match List.assoc_opt name all_sections with
      | Some f -> f ()
      | None ->
        Printf.printf "unknown section %s (available: %s)\n" name
          (String.concat ", " (List.map fst all_sections)))
    requested
