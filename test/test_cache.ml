(* The compiled-program cache (bounded by the ops it holds), the
   certificate's cache-residency figure, and the cost of placing kernels. *)
open Waltz_circuit
open Waltz_core
open Test_util
module Bench = Waltz_benchmarks.Bench_circuits
module Telemetry = Waltz_telemetry.Telemetry
module Resource = Waltz_analysis.Resource

let held_ops () = List.fold_left ( + ) 0 (Compile.program_cache_held ())
let weight p = max 1 (Physical.op_count p)

(* Circuit [slot] of a request pool on [n] qubits, by [kind mod 3]: a
   family, a synthetic circuit or a select (the e2e harness's requests
   pool). *)
let pool_circuit rng ~slot ~kind ~n =
  match kind mod 3 with
  | 0 -> Bench.by_total_qubits (List.nth Bench.all_families (slot mod 4)) n
  | 1 ->
    Bench.synthetic ~n ~gates:(4 * n)
      ~cx_fraction:(float_of_int (slot mod 5) /. 4.)
      ~seed:(Random.State.bits rng)
  | _ ->
    let index_bits = if n >= 11 then 3 else 2 in
    let values = 1 lsl index_bits in
    let a = Random.State.int rng values in
    let b = (a + 1 + Random.State.int rng (values - 1)) mod values in
    Bench.select ~index_bits
      ~system:(n - ((2 * index_bits) - 1))
      ~selections:(List.sort compare [ a; b ])
      ~seed:(Random.State.bits rng)

(* The requests pool: every strategy x size in 5-7 with at most 1024
   amplitudes, x three kinds, as QASM texts; and 512 requests over it,
   Zipf(1) by rank, in a seeded order. *)
let requests ~seed =
  let fits (s, n) =
    (if Strategy.uses_ququarts s then 4. else 2.) ** float_of_int (Compile.device_count s n)
    <= 1024.
  in
  let combos =
    Array.of_list
      (List.filter fits (List.concat_map (fun n -> List.map (fun s -> (s, n)) Strategy.all) [ 5; 6; 7 ]))
  in
  let rng = Random.State.make [| 2 |] in
  let pool =
    Array.init (3 * Array.length combos) (fun k ->
        let s, n = combos.(k mod Array.length combos) in
        (Qasm.to_string (pool_circuit rng ~slot:k ~kind:k ~n), s))
  in
  let h = Array.fold_left ( +. ) 0. (Array.mapi (fun k _ -> 1. /. float_of_int (k + 1)) pool) in
  let order =
    Array.of_list
      (List.concat
         (List.init (Array.length pool) (fun k ->
              List.init (Float.to_int (Float.round (512. /. h /. float_of_int (k + 1)))) (fun _ -> k))))
  in
  let rng = Random.State.make [| seed; 2 |] in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  (pool, order)

(* Under Zipf(1) the whole pool fits the budget, so each distinct
   (circuit, strategy) program misses once and every repeat returns it. *)
let test_requests_miss_once () =
  List.iter
    (fun seed ->
      let pool, order = requests ~seed in
      Compile.program_cache_clear ();
      Telemetry.reset ();
      Telemetry.enable ();
      let first = ref [] in
      Array.iter
        (fun k ->
          let text, s = pool.(k) in
          let circuit = Optimizer.simplify (Qasm.of_string text) in
          let p = Compile.compile s circuit in
          match List.assoc_opt (circuit, s.Strategy.name) !first with
          | Some q ->
            if not (p == q) then
              Alcotest.failf "seed %d: rank %d (%s) compiled again" seed k s.Strategy.name
          | None -> first := ((circuit, s.Strategy.name), p) :: !first)
        order;
      let misses = Telemetry.Metrics.counter "compile.program_cache.miss" in
      Telemetry.disable ();
      check_int (Printf.sprintf "seed %d: one miss per distinct program" seed)
        (List.length !first) misses;
      check_bool (Printf.sprintf "seed %d: the pool fits the budget" seed) true
        (held_ops () <= Compile.program_cache_budget))
    [ 1; 2; 3 ]

(* A sweep-like stream of new programs: eviction keeps the held ops within
   the budget, save a lone newest program over it, and the newest program
   is always held. *)
let test_held_ops_within_budget () =
  Compile.program_cache_clear ();
  let compiled = ref 0 and total = ref 0 in
  List.iter
    (fun n ->
      List.iter
        (fun family ->
          List.iter
            (fun s ->
              let p = Compile.compile s (Bench.by_total_qubits family n) in
              incr compiled;
              total := !total + weight p;
              match Compile.program_cache_held () with
              | newest :: rest as held ->
                check_int "the newest program is held" (weight p) newest;
                if rest <> [] && List.fold_left ( + ) 0 held > Compile.program_cache_budget
                then
                  Alcotest.failf "%d ops held over a %d-op budget" (List.fold_left ( + ) 0 held)
                    Compile.program_cache_budget
              | [] -> Alcotest.fail "the cache holds nothing after a compile")
            [ Strategy.qubit_only; Strategy.mixed_radix_ccz; Strategy.full_ququart ])
        Bench.all_families)
    [ 5; 7; 9; 11; 13 ];
  check_bool "the stream outgrew the budget" true (!total > Compile.program_cache_budget);
  check_bool "programs were evicted" true
    (List.length (Compile.program_cache_held ()) < !compiled)

(* A program over the budget is still kept, alone, and reused on repeat. *)
let test_over_budget_kept () =
  Compile.program_cache_clear ();
  let small = Bench.by_total_qubits Bench.Cnu 5 in
  let big = Bench.synthetic ~n:6 ~gates:3000 ~cx_fraction:0.5 ~seed:17 in
  let s = Strategy.qubit_only in
  let p_small = Compile.compile s small in
  let p_big = Compile.compile s big in
  check_bool "the program is over the budget" true
    (Physical.op_count p_big > Compile.program_cache_budget);
  check_bool "it is held alone" true (Compile.program_cache_held () = [ weight p_big ]);
  check_bool "a repeat hits" true (Compile.compile s big == p_big);
  check_bool "the evicted program compiles again" false (Compile.compile s small == p_small);
  check_bool "which evicts the big one" true (Compile.program_cache_held () = [ weight p_small ])

(* A hit returns the very program, whose placed kernels the next plan
   reuses. *)
let test_hit_places_nothing () =
  Compile.program_cache_clear ();
  let circuit = Bench.by_total_qubits Bench.Cuccaro 6 in
  let config = { Executor.model = Waltz_noise.Noise.default; trajectories = 0; base_seed = 1 } in
  Telemetry.reset ();
  Telemetry.enable ();
  let p = Compile.compile Strategy.full_ququart circuit in
  ignore (Executor.simulate_detailed ~config p);
  let placed = Telemetry.Metrics.counter "executor.kernel_memo.miss" in
  let q = Compile.compile Strategy.full_ququart circuit in
  ignore (Executor.simulate_detailed ~config q);
  let placed' = Telemetry.Metrics.counter "executor.kernel_memo.miss" in
  let hits = Telemetry.Metrics.counter "compile.program_cache.hit" in
  Telemetry.disable ();
  check_bool "a hit returns the same program" true (p == q);
  check_int "the first plan placed the kernels" 1 placed;
  check_int "the plan after a hit placed none" placed placed';
  check_int "one cache hit" 1 hits

(* RES03's residency: as many copies of the program as the ops budget
   holds, at least one. *)
let test_cache_bytes_formula () =
  List.iter
    (fun (s, circuit) ->
      let p = Compile.compile s circuit in
      let c = Resource.certify p in
      let copies = max 1 (Compile.program_cache_budget / max 1 c.Resource.ops) in
      check_int
        (Printf.sprintf "%s, %d ops: cache bytes" s.Strategy.name c.Resource.ops)
        (copies * (c.Resource.program_bytes + c.Resource.plan_bytes))
        c.Resource.cache_bytes;
      if c.Resource.ops > Compile.program_cache_budget then
        check_int "a program over the budget is one copy"
          (c.Resource.program_bytes + c.Resource.plan_bytes)
          c.Resource.cache_bytes)
    [ (Strategy.full_ququart, Bench.by_total_qubits Bench.Cnu 5);
      (Strategy.mixed_radix_ccz, Bench.by_total_qubits Bench.Cuccaro 9);
      (Strategy.qubit_only, Bench.synthetic ~n:6 ~gates:3000 ~cx_fraction:0.5 ~seed:17) ]

(* A stream of 40 programs of 500 new rotation angles (and 500 Hadamards)
   each places at a flat cost per op: the median of the last ten batches
   stays within 2x of the first batch. Nothing placed for one program may
   be scanned again for the next. *)
let test_rotation_stream_flat () =
  let batches = 40 and angles = 500 in
  Compile.set_program_cache false;
  let per_op =
    Fun.protect
      ~finally:(fun () -> Compile.set_program_cache true)
      (fun () ->
        Array.init batches (fun b ->
            let gates =
              List.concat
                (List.init angles (fun k ->
                     let theta = 0.785 +. (2e-8 *. float_of_int ((b * angles) + k)) in
                     [ Gate.make (Gate.Rz theta) [ 0 ]; Gate.make Gate.H [ 1 ] ]))
            in
            let p = Compile.compile Strategy.qubit_only (Circuit.of_gates ~n:2 gates) in
            let start = Unix.gettimeofday () in
            ignore (Executor.place p);
            (Unix.gettimeofday () -. start) *. 1e6 /. float_of_int (Physical.op_count p)))
  in
  let last = Array.sub per_op (batches - 10) 10 in
  Array.sort compare last;
  check_bool
    (Printf.sprintf "placement %.2f us/op in the last ten batches (median), %.2f in the first (<= 2x)"
       last.(5) per_op.(0))
    true
    (last.(5) <= 2. *. per_op.(0))

let suite =
  [ case "requests pool misses once per program" test_requests_miss_once;
    case "held ops stay within the budget" test_held_ops_within_budget;
    case "a program over the budget is kept alone" test_over_budget_kept;
    case "a hit places no kernels" test_hit_places_nothing;
    case "cache bytes follow the budget" test_cache_bytes_formula;
    case "same-label rotations place at a flat cost" test_rotation_stream_flat ]
