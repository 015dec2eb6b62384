open Waltz_circuit
open Waltz_core
open Waltz_noise
open Test_util
module Bench = Waltz_benchmarks.Bench_circuits

let toffoli = Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ]

let test_gate_eps_product () =
  let compiled = Compile.compile Strategy.mixed_radix_ccz toffoli in
  let eps = Eps.estimate compiled in
  let expected =
    List.fold_left (fun acc op -> acc *. op.Physical.fidelity) 1. compiled.Physical.ops
  in
  close ~tol:1e-12 "gate EPS is the fidelity product" expected eps.Eps.gate_eps;
  check_bool "coherence below 1" true (eps.Eps.coherence_eps < 1.);
  check_bool "coherence near 1 for a single gate bracket" true (eps.Eps.coherence_eps > 0.9);
  close ~tol:1e-12 "total is the product" (eps.Eps.gate_eps *. eps.Eps.coherence_eps)
    eps.Eps.total_eps

let test_more_gates_lower_eps () =
  let c1 = Waltz_benchmarks.Bench_circuits.cuccaro ~bits:2 in
  let c2 = Waltz_benchmarks.Bench_circuits.cuccaro ~bits:4 in
  let e1 = Eps.estimate (Compile.compile Strategy.qubit_only c1) in
  let e2 = Eps.estimate (Compile.compile Strategy.qubit_only c2) in
  check_bool "bigger circuit has lower EPS" true (e2.Eps.total_eps < e1.Eps.total_eps);
  check_bool "bigger circuit is longer" true (e2.Eps.duration_ns > e1.Eps.duration_ns)

let test_strategies_ranking () =
  (* On a Toffoli-heavy circuit the ququart strategies should beat the
     qubit-only baseline in gate EPS (the paper's Fig. 8 left panel). *)
  let c = Waltz_benchmarks.Bench_circuits.cnu ~controls:4 in
  let eps s = (Eps.estimate (Compile.compile s c)).Eps.gate_eps in
  let qubit = eps Strategy.qubit_only in
  let mr = eps Strategy.mixed_radix_ccz in
  let fq = eps Strategy.full_ququart in
  check_bool "mixed-radix gate EPS beats qubit-only" true (mr > qubit);
  check_bool "full-ququart gate EPS beats qubit-only" true (fq > qubit)

let test_ww_error_scaling () =
  let c = Waltz_benchmarks.Bench_circuits.cnu ~controls:3 in
  let compiled = Compile.compile Strategy.full_ququart c in
  let base = Eps.estimate compiled in
  let scaled =
    Eps.estimate ~model:{ Noise.default with Noise.ww_error_scale = 4. } compiled
  in
  check_bool "scaling ww errors lowers gate EPS" true
    (scaled.Eps.gate_eps < base.Eps.gate_eps);
  (* Qubit-only circuits are untouched by the knob. *)
  let qcompiled = Compile.compile Strategy.qubit_only c in
  let qbase = Eps.estimate qcompiled in
  let qscaled =
    Eps.estimate ~model:{ Noise.default with Noise.ww_error_scale = 4. } qcompiled
  in
  close ~tol:1e-12 "qubit-only unaffected" qbase.Eps.gate_eps qscaled.Eps.gate_eps

let test_t1_scaling () =
  let c = Waltz_benchmarks.Bench_circuits.cnu ~controls:3 in
  let compiled = Compile.compile Strategy.full_ququart c in
  let base = Eps.estimate compiled in
  let scaled =
    Eps.estimate ~model:{ Noise.default with Noise.t1_high_scale = 5. } compiled
  in
  check_bool "shorter high-level T1 lowers coherence EPS" true
    (scaled.Eps.coherence_eps < base.Eps.coherence_eps)

(* Monotonicity is a property of the estimator on one program, not of the
   compiler: appending logical gates can change the lookahead initial
   mapping and so shorten the whole schedule. So the extension is appended
   as physical ops to the base's compiled program: the extension circuit's
   compiled ops, keeping those that hold every device they touch at the
   base's final occupancy. Then EPS cannot rise. Every gate factor is at
   most 1; the ASAP schedule of the prefix is unchanged; and each device
   ends at its final level over a tail that only grows, with survival
   exp(-dt/T1) multiplicative in dt. *)
let prop_eps_monotone_under_append =
  Test_util.qcheck ~count:10 "appending gates never raises total EPS"
    QCheck.(int_range 0 2000)
    (fun seed ->
      let compile c = Compile.compile Strategy.full_ququart c in
      let base =
        compile
          (Waltz_benchmarks.Bench_circuits.synthetic ~n:5 ~gates:6 ~cx_fraction:0.5 ~seed)
      in
      let tail =
        compile
          (Waltz_benchmarks.Bench_circuits.synthetic ~n:5 ~gates:4 ~cx_fraction:0.5
             ~seed:(seed + 1))
      in
      let final_occ = Array.make base.Physical.device_count 0 in
      Array.iter (fun (d, _) -> final_occ.(d) <- final_occ.(d) + 1) base.Physical.final_map;
      let keeps_occupancy (op : Physical.op) =
        List.for_all
          (fun (p : Physical.device_part) ->
            let o = final_occ.(p.Physical.device) in
            p.Physical.occ_before = o && p.Physical.occ_after = o)
          op.Physical.parts
      in
      let extended =
        { base with
          Physical.ops = base.Physical.ops @ List.filter keeps_occupancy tail.Physical.ops }
      in
      let eps p = (Eps.estimate p).Eps.total_eps in
      eps extended <= eps base +. 1e-9)

(* The four families at 5-21 qubits under every strategy: 612 programs. *)
let paper_grid f =
  List.iter
    (fun family ->
      for size = 5 to 21 do
        let circuit = Bench.by_total_qubits family size in
        List.iter
          (fun strategy ->
            f
              (Printf.sprintf "%s-%d/%s" (Bench.family_name family) size strategy.Strategy.name)
              (Compile.compile strategy circuit))
          Strategy.all
      done)
    Bench.all_families

let rel_close ~tol a b = Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

(* Per device, the idle windows of [Physical.idle_ns] and the durations of
   the device's ops tile the schedule: they sum to its makespan. *)
let test_idle_windows_tile_schedule () =
  paper_grid (fun label p ->
      let before, after = Physical.idle_ns p in
      let sum = Array.make p.Physical.device_count 0. in
      Array.iteri
        (fun i ((op : Physical.op), _) ->
          List.iteri
            (fun k (part : Physical.device_part) ->
              let d = part.Physical.device in
              sum.(d) <- sum.(d) +. before.(i).(k) +. op.Physical.duration_ns)
            op.Physical.parts)
        (Physical.schedule_array p);
      let total = Physical.total_duration p in
      Array.iteri
        (fun d s ->
          if not (rel_close ~tol:1e-12 total (s +. after.(d))) then
            Alcotest.failf "%s device %d: windows and ops sum to %h, makespan %h" label d
              (s +. after.(d)) total)
        sum)

(* The per-device survivals of [device_breakdown] multiply to the coherence
   EPS of [estimate]: both read one walk. *)
let test_device_survivals_multiply_to_coherence () =
  paper_grid (fun label p ->
      let eps = Eps.estimate p in
      let product =
        List.fold_left (fun acc d -> acc *. d.Eps.survival) 1. (Eps.device_breakdown p)
      in
      if not (rel_close ~tol:1e-12 eps.Eps.coherence_eps product) then
        Alcotest.failf "%s: survivals multiply to %.17g, coherence EPS %.17g" label product
          eps.Eps.coherence_eps)

(* The gate EPS is the chance that a trajectory draws no depolarizing error:
   the product of 1 − error_p over the executor's noise schedule, bit for
   bit, with and without the Fig. 9b scale. *)
let test_gate_eps_is_no_draw_probability () =
  let scaled = { Noise.default with Noise.ww_error_scale = 6. } in
  paper_grid (fun label p ->
      List.iter
        (fun model ->
          let no_draw =
            Array.fold_left
              (fun acc (n : Executor.op_noise) -> acc *. (1. -. n.Executor.error_p))
              1. (Executor.noise_schedule ~model p).Executor.op_noise
          in
          let gate_eps = (Eps.estimate ~model p).Eps.gate_eps in
          if not (Float.equal no_draw gate_eps) then
            Alcotest.failf "%s (ww scale %g): no-draw product %h, gate EPS %h" label
              model.Noise.ww_error_scale no_draw gate_eps)
        [ Noise.default; scaled ])

let suite =
  [ case "gate eps product" test_gate_eps_product;
    case "idle windows tile the schedule" test_idle_windows_tile_schedule;
    case "device survivals multiply to coherence eps" test_device_survivals_multiply_to_coherence;
    case "gate eps is the no-draw probability" test_gate_eps_is_no_draw_probability;
    prop_eps_monotone_under_append;
    case "more gates lower eps" test_more_gates_lower_eps;
    case "strategy ranking" test_strategies_ranking;
    case "ww error scaling" test_ww_error_scaling;
    case "t1 scaling" test_t1_scaling ]
