(* Coverage for the parallel trajectory engine: the Domain worker pool,
   bit-identical statistics across domain counts, and the plan-level
   caches. *)
open Waltz_circuit
open Waltz_noise
open Waltz_core
open Waltz_runtime
open Test_util

(* ---------------- worker pool ---------------- *)

let test_pool_map_array () =
  Pool.with_pool ~domains:4 (fun pool ->
      check_int "pool size" 4 (Pool.size pool);
      let squares = Pool.map_array pool ~n:100 ~f:(fun i -> i * i) in
      Array.iteri (fun i v -> check_int "square" (i * i) v) squares;
      (* The same pool serves a second job. *)
      let sum = Pool.map_reduce pool ~n:50 ~map:Fun.id ~fold:( + ) ~init:0 in
      check_int "fold" (50 * 49 / 2) sum)

let test_pool_matches_sequential () =
  let f i = Float.rem (float_of_int i ** 1.5) 7.3 in
  let seq = Pool.run ~domains:1 ~n:37 f in
  let par = Pool.run ~domains:3 ~n:37 f in
  check_bool "parallel map equals sequential map" true (seq = par)

let test_pool_edges () =
  Pool.with_pool ~domains:2 (fun pool ->
      check_int "n=0" 0 (Array.length (Pool.map_array pool ~n:0 ~f:Fun.id));
      check_bool "n=1" true (Pool.map_array pool ~n:1 ~f:(fun i -> i + 7) = [| 7 |]));
  check_bool "more domains than items" true (Pool.run ~domains:8 ~n:3 Fun.id = [| 0; 1; 2 |])

let test_pool_exception_propagates () =
  Pool.with_pool ~domains:3 (fun pool ->
      match Pool.map_array pool ~n:10 ~f:(fun i -> if i = 5 then failwith "boom" else i) with
      | _ -> Alcotest.fail "expected the item failure to re-raise"
      | exception Failure m ->
        check_bool "failure message" true (m = "boom");
        (* The pool survives a failed job. *)
        check_int "pool usable after failure" 45
          (Pool.map_reduce pool ~n:10 ~map:Fun.id ~fold:( + ) ~init:0))

let test_default_domains_positive () =
  let d = Pool.default_domains () in
  check_bool "default domains >= 1" true (d >= 1 && d <= 64)

(* ---------------- determinism across domain counts ---------------- *)

let toffoli = Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ]
let cnu5 = Waltz_benchmarks.Bench_circuits.by_total_qubits Cnu 5

let test_determinism_grid () =
  List.iter
    (fun circuit ->
      List.iter
        (fun (strategy : Strategy.t) ->
          let compiled = Compile.compile strategy circuit in
          let run domains =
            Executor.simulate_detailed
              ~config:{ Executor.model = Noise.default; trajectories = 8; base_seed = 7 }
              ~domains compiled
          in
          let a = run 1 and b = run 4 in
          let tag field = Printf.sprintf "%s %s domains 1 = 4" strategy.Strategy.name field in
          check_bool (tag "mean_fidelity") true
            (a.Executor.summary.Executor.mean_fidelity
            = b.Executor.summary.Executor.mean_fidelity);
          check_bool (tag "sem") true
            (a.Executor.summary.Executor.sem = b.Executor.summary.Executor.sem);
          check_bool (tag "mean_leakage") true
            (a.Executor.mean_leakage = b.Executor.mean_leakage);
          check_bool (tag "mean_error_draws") true
            (a.Executor.mean_error_draws = b.Executor.mean_error_draws))
        [ Strategy.qubit_only; Strategy.mixed_radix_ccz; Strategy.full_ququart ])
    [ toffoli; cnu5 ]

let suite =
  [ case "pool map_array" test_pool_map_array;
    case "pool matches sequential" test_pool_matches_sequential;
    case "pool edge cases" test_pool_edges;
    case "pool exception propagates" test_pool_exception_propagates;
    case "default domains sane" test_default_domains_positive;
    case "determinism across domains" test_determinism_grid ]
