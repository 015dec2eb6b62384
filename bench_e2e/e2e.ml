(* End-to-end benchmark of the Waltz pipeline.

   One closed-loop client in one process sends jobs one after another: a
   QASM text in, then parse (Qasm), simplify (Optimizer), compile (Compile,
   program cache on), schedule (Physical.schedule_array), estimate (Eps),
   certify (Resource) and, except in sweep, simulate (Executor, with
   ~domains:2 ~batch:8 passed explicitly). Inputs are generated from --seed
   during set-up; the pipeline only ever sees their QASM texts. Layers are
   timed from outside, around calls into their public functions.

   Run from the repository root (BENCHMARK.json holds the same command):
     dune exec ./bench_e2e/e2e.exe -- --workload ladder --seed 1 --seconds 18 --trace 0
   A run prints a record line (workload, seed, rounds, jobs_timed,
   results_digest, nproc, OCaml version, git commit, metrics and
   unresolved metrics) and then the result line with "correct",
   "attempted", "failed" and "metrics". --trace 1 reports the per-layer
   metrics instead of the end-to-end ones and writes a Chrome trace_event
   file to .bench_build/. Compare two sets of runs, each file holding the
   appended stdout of several runs:
     dune exec ./bench_e2e/e2e.exe -- compare A.jsonl B.jsonl
   This prints the quartiles of every end-to-end metric per workload,
   unresolved ones included, and exits 1 when the medians of the two sets
   differ by more than a bound in BENCHMARK.json, or when two runs of one
   workload and seed report different results_digest values.

   A workload is one round of jobs with a fixed amount of work, run in
   whole rounds while another round as long as the last one still fits in
   --seconds (at least one round). Every repeat of a job does identical
   work: same text, strategy, model and trajectory seed. Job times are
   taken over every repeat.
   - ladder: full-ququart cnu-11 (6 devices) K=64, cnu-13 (7) K=32,
     cuccaro-16 (8) K=8, select-17 (9) K=2 and mixed-radix CCZ cnu-9 (9)
     K=2. Trajectory kernels and damping dominate; a lane's state grows
     from 64 KB to 4 MB, past the L2. Jobs with K <= 8 fill one batch-8
     block, so one of the two seats idles. Ten devices take about 2.4 s per
     trajectory on two cores and eleven about four times that, too long to
     repeat in one run.
   - sweep: 102 seeded circuits, every (n, kind) for n in [5, 21] twice,
     kinds being the families, synthetic (4n gates, cx_fraction in
     {0, .25, .5, .75, 1}) and select. Each is compiled under all
     nine strategies (compile_all), then estimated and certified per
     program. No trajectories. The program cache is emptied before every
     round, so every compile misses.
   - requests: 512 requests, Zipf(1) over a fixed pool of 57 circuits of
     5-7 qubits (every strategy x size with at most 1024 amplitudes, x three
     kinds) in a seeded order, each simulated with 16 trajectories: two
     batch-8 blocks, so the second goes through the pool. Per-request fixed
     costs dominate, and repeats hit the program and plan caches.
   - noise: cuccaro-7, qram-7 and cnu-7 x {qubit-only, qubit-itoffoli,
     mr-ccz, full-ququart} x nine noise models (gate error x{1,2,3,4,6},
     |2>/|3> T1 divisor {2,4,8,16}) at K=128, one round of 14-22 s.
     Programs hit the cache, but every model needs a new plan; error draws,
     damping jumps and lane divergence weigh more than in ladder.
   Set-up generates the inputs and, unless the workload is cold, compiles
   and plans every program of the round, the way a warm process would.

   End-to-end metrics (--trace 0), bounded in BENCHMARK.json: setup_s (the
   median of nine set-ups) and rss_mb (the mean resident size read after
   each job of the first round). Failures are the result line's "failed"
   count.

   Unresolved end-to-end metrics, printed in the record line only:
   jobs_per_s (timed jobs per second of their summed times), job_ms_p50,
   job_ms_p90, traj_per_s (where jobs simulate), verify_ms_p50 and
   verify_ms_p90 (time to each verdict of the correctness gate), each p90
   only with at least 100 samples, and peak_rss_mb (VmHWM after the first
   round). None of the times repeats within a 10% bound on a shared
   two-core machine where a fixed CPU loop alone spreads by 22-40%
   (quartile distance over median) from one second to the next. Taking
   each job's fastest repeat would hide regressions that hit only some
   repeats, such as GC pauses. The peak is set by when the two domains'
   major collections run and spreads by up to 12% on noise, where the
   mean resident size over the same round spreads by 3-8%.

   Correctness gate. An exception fails its job; the run goes on. A
   fidelity, sem, leakage or EPS that is NaN or outside [0, 1] fails the
   job. After the timed loop, every distinct (circuit, strategy) program
   of the run is compiled again, must dump (Physical.dump) to the digest
   of the program its jobs returned, and is checked by Verify.run against
   its circuit on the compiler's default mesh, with equivalence replay up
   to 7 qubits (8-qubit replay takes about 0.5 s per program). An error
   diagnostic fails every repeat of the jobs of that program.
   results_digest hashes Physical.dump and the hex-printed estimates and
   statistics of the first round.

   Per-layer metrics (--trace 1), each with the end-to-end metric it should
   move and the workload where that layer does most of the work:
   - qasm.ms_per_job, qasm.ns_per_gate -> job_ms_p50 @ requests
   - optimizer.ms_per_job, optimizer.ns_per_gate -> jobs_per_s @ sweep
   - decompose.probe_us (Decompose.pre after the loop, on the first 64
     programs) -> jobs_per_s @ sweep
   - compile.ms_per_job, compile.probe_us_per_op (fresh compile with the
     cache off, after the loop), compile.cache_hit_ratio (the returned
     program is == to the last one returned for its key), and the mean
     compile.ops, .two_device_ops, .swap_ops and .encdec_ops of a distinct
     program -> jobs_per_s @ sweep, job_ms_p90 @ requests
   - schedule.ms_per_job (the first schedule_array read) -> jobs_per_s @ sweep
   - eps.ms_per_job -> jobs_per_s @ sweep
   - resource.ms_per_job -> jobs_per_s @ sweep, job_ms_p50 @ requests;
     resource.certified_peak_mb (largest over simulated programs), to hold
     against peak_rss_mb and rss_mb @ ladder
   - verify.ms_per_program, verify.programs: the gate
   - executor.plan_ms (a trajectories = 0 call before each simulate, where
     the plan is built or found; per simulate call), executor.traj_core_ms
     ((simulate - plan) x seats / K, seats = min(2, ceil(K/8))),
     executor.noise_core_ms (traj_core_ms - 2 x kernel.ideal_pass_ms: fill,
     damping, error draws, reduction), executor.error_draws_per_traj
     -> traj_per_s @ ladder and noise, job_ms_p90 @ noise
   - kernel.ideal_pass_ms (after the loop, each simulated program's ops are
     lifted, compiled with Kernel.compile and replayed over one block; per
     lane, weighted by trajectories), kernel.computed_mb_per_traj and
     kernel.computed_gbps (state bytes read plus written: computed, not
     counted), kernel.dispatch.{diagonal,monomial,single_wire}_per_traj
     (the certificate's dispatch mix x 2 passes; controlled_block,
     two_wire and generic never dispatch in these workloads)
     -> traj_per_s @ ladder
   - gc.minor_mb_per_job, gc.major_collections_per_s (Gc.quick_stat
     deltas around each job call, per second of job time)
     -> job_ms_p90 @ requests
   - trace.overhead_pct: the median job time of the traced rounds (the odd
     ones) against that of the untraced rounds;
     trace.unattributed_pct: the share of traced job time outside every
     layer span.
   The span metrics (the ms_per_job and ns_per_gate ones and
   trace.unattributed_pct) count the traced rounds, the others every
   round. A workload that simulates nothing (sweep) gets its executor and
   kernel figures from a probe after the loop: 16 trajectories of up to 8
   of its programs with at most 4096 amplitudes. *)

open Waltz_circuit
open Waltz_noise
open Waltz_core
open Waltz_benchmarks
module Topology = Waltz_arch.Topology
module Rng = Waltz_linalg.Rng
module Kernel = Waltz_sim.Kernel
module State_block = Waltz_sim.State_block
module Resource = Waltz_analysis.Resource
module Verify = Waltz_verify.Verify
module Diagnostic = Waltz_verify.Diagnostic
module Telemetry = Waltz_telemetry.Telemetry
module Json = Waltz_telemetry.Json

let domains = 2
let batch = 8
let setup_reps = 9
let equiv_max_qubits = 7

let all_strategies =
  [ Strategy.qubit_only; Strategy.qubit_itoffoli; Strategy.mixed_radix_basic;
    Strategy.mixed_radix_retarget; Strategy.mixed_radix_ccz; Strategy.full_ququart;
    Strategy.mixed_radix_cswap; Strategy.full_ququart_cswap;
    Strategy.full_ququart_cswap_oriented ]

(* Knobs that silently change what is measured. *)
let pinned_env =
  [ "WALTZ_DOMAINS"; "WALTZ_BATCH"; "WALTZ_COMPILE_CACHE"; "WALTZ_FLIGHT"; "WALTZ_PROFILE_HZ" ]

let now_us = Telemetry.now_us

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------------- inputs ---------------- *)

type job = {
  text : int;  (** index into [inputs.texts] *)
  strategies : Strategy.t list;
  model : Noise.model;
  trajectories : int;  (** 0: no simulation *)
  base_seed : int;
}

type inputs = {
  texts : string array;
  round : job array;  (** repeated until the run's time is up *)
  cold : bool;  (** empty the program cache before every round *)
}

let model_of ~seed = { Noise.default with Noise.seed }

let ladder seed =
  let specs =
    [ (Bench_circuits.Cnu, 11, Strategy.full_ququart, 64);
      (Cnu, 13, Strategy.full_ququart, 32);
      (Cuccaro, 16, Strategy.full_ququart, 8);
      (Select, 17, Strategy.full_ququart, 2);
      (Cnu, 9, Strategy.mixed_radix_ccz, 2) ]
  in
  let model = model_of ~seed in
  { texts =
      Array.of_list
        (List.map (fun (f, n, _, _) -> Qasm.to_string (Bench_circuits.by_total_qubits f n)) specs);
    round =
      Array.of_list
        (List.mapi
           (fun i (_, _, s, k) ->
             { text = i; strategies = [ s ]; model; trajectories = k; base_seed = (seed * 1000) + i })
           specs);
    cold = false }

(* Circuit [slot] of a pool on [n] qubits: by [kind mod 3], a family, a
   synthetic circuit or a select. The slot fixes the family and the
   synthetic cx_fraction, which set most of the cost; [rng] draws the
   rest, so seeds vary the circuits but barely the work. *)
let pool_circuit rng ~slot ~kind ~n =
  match kind mod 3 with
  | 0 -> Bench_circuits.by_total_qubits (List.nth Bench_circuits.all_families (slot mod 4)) n
  | 1 ->
    Bench_circuits.synthetic ~n ~gates:(4 * n)
      ~cx_fraction:(float_of_int (slot mod 5) /. 4.)
      ~seed:(Random.State.bits rng)
  | _ ->
    let index_bits = if n >= 11 then 3 else 2 in
    let values = 1 lsl index_bits in
    let a = Random.State.int rng values in
    let b = (a + 1 + Random.State.int rng (values - 1)) mod values in
    Bench_circuits.select ~index_bits
      ~system:(n - ((2 * index_bits) - 1))
      ~selections:(List.sort compare [ a; b ])
      ~seed:(Random.State.bits rng)

let sweep seed =
  let rng = Random.State.make [| seed; 1 |] in
  let model = model_of ~seed in
  { texts =
      Array.init 102 (fun j ->
          Qasm.to_string (pool_circuit rng ~slot:j ~kind:(j / 17) ~n:(5 + (j mod 17))));
    round =
      Array.init 102 (fun j ->
          { text = j; strategies = all_strategies; model; trajectories = 0; base_seed = 0 });
    cold = true }

let requests seed =
  let fits (s, n) =
    (if Strategy.uses_ququarts s then 4. else 2.) ** float_of_int (Compile.device_count s n)
    <= 1024.
  in
  let combos =
    Array.of_list
      (List.filter fits
         (List.concat_map (fun n -> List.map (fun s -> (s, n)) all_strategies) [ 5; 6; 7 ]))
  in
  (* 19 combos x 3 kinds; 19 and 3 are coprime, so slot k covers each
     pair once. The pool is the same for every seed: under Zipf(1) a few
     circuits carry most requests, so a seeded pool would change the work. *)
  let rng = Random.State.make [| 2 |] in
  let pool =
    Array.init (3 * Array.length combos) (fun k ->
        let s, n = combos.(k mod Array.length combos) in
        (Qasm.to_string (pool_circuit rng ~slot:k ~kind:k ~n), s))
  in
  (* Zipf(1) over pool ranks: rank k is asked round(512 p_k) times,
     p_k proportional to 1/(k+1), in a seeded order. *)
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
  let model = model_of ~seed in
  { texts = Array.map fst pool;
    round =
      Array.mapi
        (fun j k ->
          { text = k; strategies = [ snd pool.(k) ]; model; trajectories = 16;
            base_seed = (seed * 1_000_000) + j })
        order;
    cold = false }

let noise seed =
  let circuits = [ Bench_circuits.Cuccaro; Qram; Cnu ] in
  let strategies =
    [ Strategy.qubit_only; Strategy.qubit_itoffoli; Strategy.mixed_radix_ccz;
      Strategy.full_ququart ]
  in
  let base = model_of ~seed in
  let models =
    List.map (fun x -> { base with Noise.ww_error_scale = x }) [ 1.; 2.; 3.; 4.; 6. ]
    @ List.map (fun x -> { base with Noise.t1_high_scale = x }) [ 2.; 4.; 8.; 16. ]
  in
  let jobs =
    List.concat_map
      (fun model ->
        List.concat
          (List.mapi
             (fun t _ ->
               List.map
                 (fun s -> { text = t; strategies = [ s ]; model; trajectories = 128; base_seed = 0 })
                 strategies)
             circuits))
      models
  in
  { texts =
      Array.of_list
        (List.map (fun f -> Qasm.to_string (Bench_circuits.by_total_qubits f 7)) circuits);
    round = Array.of_list (List.mapi (fun i j -> { j with base_seed = (seed * 1000) + i }) jobs);
    cold = false }

let workloads = [ ("ladder", ladder); ("sweep", sweep); ("requests", requests); ("noise", noise) ]

(* ---------------- spans ---------------- *)

type span = { name : string; job : int; start_us : float; stop_us : float }

let tracing = ref false
let current_job = ref (-1)
let spans : span list ref = ref []

let record name ~start_us ~stop_us =
  spans := { name; job = !current_job; start_us; stop_us } :: !spans

(* Runs one call into a layer and returns its result with its duration in
   microseconds; under tracing, records it as a span of the current job. *)
let timed name f =
  let start_us = now_us () in
  let r = f () in
  let stop_us = now_us () in
  if !tracing then record name ~start_us ~stop_us;
  (r, stop_us -. start_us)

let layer name f = fst (timed name f)

(* ---------------- one job ---------------- *)

type sim = { detailed : Executor.detailed; plan_us : float; sim_us : float }

type program_result = {
  strategy : Strategy.t;
  program : Physical.t;
  eps : Eps.breakdown;
  cert : Resource.t;
  sim : sim option;
}

type job_result = { gates_in : int; circuit : Circuit.t; programs : program_result list }

let simulate ~model ~trajectories ~base_seed program =
  let config = { Executor.model; trajectories; base_seed } in
  (* A trajectories = 0 call builds (or finds) the plan, so the simulate
     call after it runs trajectories only. *)
  let (), plan_us =
    timed "executor.plan" (fun () ->
        ignore
          (Executor.simulate_detailed ~config:{ config with trajectories = 0 } ~domains ~batch
             program))
  in
  let detailed, sim_us =
    timed "executor.simulate" (fun () -> Executor.simulate_detailed ~config ~domains ~batch program)
  in
  { detailed; plan_us; sim_us }

let run_job inputs job =
  let parsed = layer "qasm" (fun () -> Qasm.of_string inputs.texts.(job.text)) in
  let circuit = layer "optimizer" (fun () -> Optimizer.simplify parsed) in
  let programs =
    layer "compile" (fun () ->
        match job.strategies with
        | [ s ] -> [ Compile.compile s circuit ]
        | ss -> Compile.compile_all ~domains (List.map (fun s -> (s, circuit)) ss))
  in
  let programs =
    List.map2
      (fun strategy program ->
        ignore (layer "schedule" (fun () -> Physical.schedule_array program));
        let eps = layer "eps" (fun () -> Eps.estimate ~model:job.model program) in
        let cert =
          layer "resource" (fun () ->
              Resource.certify ~trajectories:(max 1 job.trajectories) ~batch ~domains program)
        in
        let sim =
          if job.trajectories = 0 then None
          else
            Some
              (simulate ~model:job.model ~trajectories:job.trajectories ~base_seed:job.base_seed
                 program)
        in
        { strategy; program; eps; cert; sim })
      job.strategies programs
  in
  { gates_in = Circuit.gate_count parsed; circuit; programs }

(* ---------------- statistics ---------------- *)

let sorted xs = Array.of_list (List.sort compare xs)

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let sum = List.fold_left ( +. ) 0.

(* Probabilities, with room for rounding (an error-free overlap can read
   1 + 1 ulp, a leakage -1e-16). *)
let in_unit x = Float.is_finite x && x >= -1e-9 && x <= 1. +. 1e-9

(* A memory figure of this process in MB: "VmRSS" (resident now) or
   "VmHWM" (peak resident). *)
let status_mb field =
  let prefix = field ^ ":" in
  let n = String.length prefix in
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > n && String.sub line 0 n = prefix ->
      Scanf.sscanf (String.sub line n (String.length line - n)) " %f" (fun kb -> kb *. 1024. /. 1e6)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let git_commit () =
  let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when line <> "" -> line
  | _ -> "unknown"

let hex f = Printf.sprintf "%h" f

let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

(* ---------------- the run ---------------- *)

type options = { workload : string; seed : int; seconds : float; trace : bool; jobs : int }

let key_of job (s : Strategy.t) = Printf.sprintf "%d/%s" job.text s.Strategy.name

(* The program last returned for each key, held weakly: a compile hit the
   program cache when it returns that very program (==), which the cache
   then still holds. Strong references would keep all of sweep's 918
   programs alive. *)
let last_program : (string, Physical.t Weak.t) Hashtbl.t = Hashtbl.create 128

let remember key program =
  let w = Weak.create 1 in
  Weak.set w 0 (Some program);
  Hashtbl.replace last_program key w

let cache_hit key program =
  let hit =
    match Hashtbl.find_opt last_program key with
    | Some w -> ( match Weak.get w 0 with Some p -> p == program | None -> false)
    | None -> false
  in
  remember key program;
  hit

(* Set-up: generate the inputs and, unless the workload is cold, compile
   every program of the round into an emptied program cache and plan it
   under its job's model. *)
let setup make seed =
  let inputs = make seed in
  Compile.program_cache_clear ();
  if not inputs.cold then
    Array.iter
      (fun job ->
        List.iter
          (fun s ->
            let program =
              Compile.compile s (Optimizer.simplify (Qasm.of_string inputs.texts.(job.text)))
            in
            remember (key_of job s) program;
            if job.trajectories > 0 then
              ignore
                (Executor.simulate_detailed
                   ~config:{ Executor.model = job.model; trajectories = 0; base_seed = 0 }
                   ~domains ~batch program))
          job.strategies)
      inputs.round;
  inputs

(* Executor accounting over every simulate call of a run. *)
type simulated = { sprogram : Physical.t; cap : int; mutable traj : int }

type acc = {
  mutable sim_calls : int;
  mutable traj_total : int;
  mutable plan_us : float;
  mutable core_us : float;  (** simulate time x seats used *)
  mutable sim_us : float;
  mutable draws : float;
  mutable computed_bytes : float;
  mutable peak_bytes : int;  (** largest certified peak of a simulated program *)
  dispatch : (string, int) Hashtbl.t;
  simulated : (string, simulated) Hashtbl.t;  (** per program key, for the kernel probe *)
}

let seats k = min domains ((k + batch - 1) / batch)

let account acc ~key program (cert : Resource.t) ~trajectories (s : sim) =
  let k = float_of_int trajectories in
  acc.sim_calls <- acc.sim_calls + 1;
  acc.traj_total <- acc.traj_total + trajectories;
  acc.plan_us <- acc.plan_us +. s.plan_us;
  acc.sim_us <- acc.sim_us +. s.sim_us;
  acc.core_us <- acc.core_us +. (s.sim_us *. float_of_int (seats trajectories));
  acc.draws <- acc.draws +. (s.detailed.Executor.mean_error_draws *. k);
  (* Each op reads and writes every amplitude (re and im planes) in the
     ideal and in the noisy pass. *)
  acc.computed_bytes <-
    acc.computed_bytes
    +. (k *. 2. *. float_of_int cert.Resource.ops *. float_of_int cert.Resource.dim *. 32.);
  acc.peak_bytes <- max acc.peak_bytes cert.Resource.peak_bytes;
  List.iter
    (fun (cls, n) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt acc.dispatch cls) in
      Hashtbl.replace acc.dispatch cls (prev + (2 * n * trajectories)))
    cert.Resource.dispatch_mix;
  match Hashtbl.find_opt acc.simulated key with
  | Some e -> e.traj <- e.traj + trajectories
  | None ->
    Hashtbl.replace acc.simulated key
      { sprogram = program; cap = min batch trajectories; traj = trajectories }

(* Per-lane milliseconds of one ideal pass: the program's ops lifted and
   compiled as the executor plans them, replayed over a block of [cap]
   lanes until at least 20 ms have passed. *)
let ideal_pass_ms program ~cap =
  let device_dim = program.Physical.device_dim in
  let dims = Array.make program.Physical.device_count device_dim in
  let kernels =
    Array.map
      (fun ((op : Physical.op), _) ->
        let devices, lifted = Executor.lift_gate ~device_dim op in
        Kernel.compile ~dims ~targets:devices lifted)
      (Physical.schedule_array program)
  in
  let blk = State_block.create ~dims ~cap in
  let allowed =
    Array.map
      (fun levels -> Array.init device_dim (fun l -> List.mem l levels))
      (Executor.initial_allowed program)
  in
  State_block.fill_random_supported blk (Array.init cap (fun k -> Rng.make ~seed:k)) ~allowed;
  let start = now_us () in
  let passes = ref 0 in
  while !passes = 0 || now_us () -. start < 20_000. do
    Array.iter (State_block.apply_kernel blk) kernels;
    incr passes
  done;
  (now_us () -. start) /. 1000. /. float_of_int !passes /. float_of_int cap

let is_swap (op : Physical.op) =
  String.starts_with ~prefix:"SWAP" op.Physical.label && List.length op.Physical.parts >= 2

let is_encdec (op : Physical.op) = op.Physical.label = "ENC" || op.Physical.label = "ENCdg"

(* What the correctness gate found: the keys of programs with error
   diagnostics, the time to each verdict, the structure of each distinct
   program, and the first 64 (key, circuit, strategy) triples for the
   probes. *)
type gate = {
  bad : (string, unit) Hashtbl.t;
  verify_ms : float list;
  structure : (int * int * int * int) list;  (** ops, 2-device, SWAP, ENC/DEC *)
  probe_inputs : (string * Circuit.t * Strategy.t) list;
}

(* Runs after the timed loop, over every distinct program of the run in the
   order they first appeared: (key, circuit, strategy, digest of the job's
   Physical.dump). Holding every program until then would take sweep's
   peak RSS from about 70 MB to 600 MB, so each is compiled again and must
   dump to the same digest, then is checked against its circuit on the
   compiler's default mesh. *)
let run_gate distinct =
  let bad = Hashtbl.create 8 in
  let checked =
    List.map
      (fun (key, circuit, strategy, digest) ->
        let program = Compile.compile strategy circuit in
        let topology = Topology.mesh (Compile.device_count strategy circuit.Circuit.n) in
        let report, us =
          timed "verify" (fun () -> Verify.run ~topology ~equiv_max_qubits (Some circuit) program)
        in
        if Digest.string (Physical.dump program) <> digest then begin
          Printf.eprintf "%s: compiling again gave another program\n%!" key;
          Hashtbl.replace bad key ()
        end;
        if not (Diagnostic.is_clean report) then begin
          Printf.eprintf "%s: %s\n%!" key (Diagnostic.report_to_string report);
          Hashtbl.replace bad key ()
        end;
        let ops = program.Physical.ops in
        let count p = List.length (List.filter p ops) in
        ( us /. 1000.,
          (List.length ops, Physical.two_device_op_count program, count is_swap, count is_encdec) ))
      distinct
  in
  { bad; verify_ms = List.map fst checked; structure = List.map snd checked;
    probe_inputs =
      List.filteri (fun i _ -> i < 64) (List.map (fun (key, c, s, _) -> (key, c, s)) distinct) }

let write_trace path ~t0 =
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf "{\"traceEvents\":[";
  let events =
    List.sort (fun a b -> compare (a.start_us, -.a.stop_us) (b.start_us, -.b.stop_us)) !spans
  in
  List.iteri
    (fun i s ->
      let parent =
        if s.name = "job" || s.name = "probe" || s.name = "verify" then ""
        else if s.job < 0 then "probe"
        else "job"
      in
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":0,\"args\":{\"job\":\"%d\",\"parent\":\"%s\"}}"
        (Json.escape s.name) (s.start_us -. t0) (s.stop_us -. s.start_us) s.job parent)
    events;
  Buffer.add_string buf "]}\n";
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Telemetry.Trace.validate (read_file path)

(* The names and units BENCHMARK.json lists under [section], when the run
   starts from the repository root, must be exactly those reported. *)
let catalog_mismatch ~section metrics =
  if not (Sys.file_exists "BENCHMARK.json") then None
  else
    match Json.parse (read_file "BENCHMARK.json") with
    | Error e -> Some ("BENCHMARK.json: " ^ e)
    | Ok doc -> (
      match Json.member section doc with
      | Some (Json.Arr entries) ->
        let listed =
          List.filter_map
            (fun e ->
              match (Json.member "name" e, Json.member "unit" e) with
              | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
              | _ -> None)
            entries
        in
        let produced = List.map (fun (n, u, _) -> (n, u)) metrics in
        if List.sort compare listed = List.sort compare produced then None
        else Some ("metrics differ from BENCHMARK.json " ^ section)
      | _ -> Some ("BENCHMARK.json has no " ^ section))

(* After the loop, outside every job: Decompose.pre and a fresh compile
   (cache off) of the gate's first programs, 16 trajectories of up to 8
   small ones when the loop simulated nothing, and the ideal-pass replay of
   every simulated program. Returns the decompose us per call, the fresh
   compile us per op and the trajectory-weighted ideal pass ms per lane. *)
let probes ~seed gate acc =
  current_job := -1;
  tracing := true;
  let start_us = now_us () in
  let inputs = gate.probe_inputs in
  let decompose_us =
    sum (List.map (fun (_, c, s) -> snd (timed "probe.decompose" (fun () -> Decompose.pre s c))) inputs)
  in
  Compile.set_program_cache false;
  let fresh =
    Fun.protect
      ~finally:(fun () -> Compile.set_program_cache true)
      (fun () ->
        List.map (fun (key, c, s) -> (key, timed "probe.compile" (fun () -> Compile.compile s c))) inputs)
  in
  let fresh_ops = List.fold_left (fun a (_, (p, _)) -> a + Physical.op_count p) 0 fresh in
  if acc.traj_total = 0 then
    List.iteri
      (fun i (key, (p, _)) ->
        if i < 8 then
          account acc ~key p
            (Resource.certify ~trajectories:16 ~batch ~domains p)
            ~trajectories:16
            (simulate ~model:(model_of ~seed) ~trajectories:16 ~base_seed:(seed + i) p))
      (List.filter
         (fun (_, (p, _)) ->
           float_of_int p.Physical.device_dim ** float_of_int p.Physical.device_count <= 4096.)
         fresh);
  let ideal =
    Hashtbl.fold
      (fun _ e a ->
        a +. (float_of_int e.traj *. layer "probe.kernel" (fun () -> ideal_pass_ms e.sprogram ~cap:e.cap)))
      acc.simulated 0.
  in
  record "probe" ~start_us ~stop_us:(now_us ());
  tracing := false;
  ( decompose_us /. float_of_int (List.length inputs),
    sum (List.map (fun (_, (_, us)) -> us) fresh) /. float_of_int fresh_ops,
    ideal /. float_of_int acc.traj_total )

(* Every time, in ms, of the rounds [keep] selects. *)
let latencies times keep =
  List.concat_map
    (List.filter_map (fun (r, ms) -> if keep r then Some ms else None))
    (Array.to_list times)

let run opts =
  let make seed =
    let inputs = List.assoc opts.workload workloads seed in
    { inputs with round = Array.sub inputs.round 0 (min opts.jobs (Array.length inputs.round)) }
  in
  let setup_s, inputs =
    let times = ref [] and inputs = ref None in
    for _ = 1 to setup_reps do
      let start = now_us () in
      inputs := Some (setup make opts.seed);
      times := ((now_us () -. start) /. 1e6) :: !times
    done;
    (percentile 0.5 !times, Option.get !inputs)
  in
  let acc =
    { sim_calls = 0; traj_total = 0; plan_us = 0.; core_us = 0.; sim_us = 0.; draws = 0.;
      computed_bytes = 0.; peak_bytes = 0; dispatch = Hashtbl.create 8;
      simulated = Hashtbl.create 64 }
  in
  let n_jobs = Array.length inputs.round in
  (* Per job of the round: (round, ms) of every successful repeat, the
     number of repeats and of failed ones. *)
  let times = Array.make n_jobs [] in
  let attempts = Array.make n_jobs 0 and failures = Array.make n_jobs 0 in
  (* Every distinct program of the run, newest first, for the gate. *)
  let distinct = ref [] and seen = Hashtbl.create 1024 in
  let compiles = ref 0 and hits = ref 0 in
  let digest = Buffer.create 4096 in
  let attempted = ref 0 in
  let traced_jobs = ref 0 and traced_ms = ref 0. and traced_gates = ref 0 in
  (* Allocation and major collections inside the job calls only. *)
  let minor_words = ref 0. and major_collections = ref 0 and busy_us = ref 0. in
  let t0 = now_us () in
  let deadline = t0 +. (opts.seconds *. 1e6) in
  let round = ref 0 and round_us = ref 0. in
  (* Memory is read over the first round, a fixed amount of work: later
     rounds grow the heap further, and how many fit depends on the speed
     of the machine. The resident size after each job, and the peak. *)
  let rss_mb = ref [] and peak_rss_mb = ref nan in
  (* Whole rounds only, while another one as long as the last fits. *)
  while !round < (if opts.trace then 2 else 1) || now_us () +. !round_us <= deadline do
    let r = !round in
    let round_start = now_us () in
    if inputs.cold then Compile.program_cache_clear ();
    tracing := opts.trace && r mod 2 = 1;
    Array.iteri
      (fun slot job ->
        incr attempted;
        attempts.(slot) <- attempts.(slot) + 1;
        let id = !attempted in
        current_job := id;
        let gc0 = Gc.quick_stat () in
        let start_us = now_us () in
        let outcome = match run_job inputs job with res -> Ok res | exception exn -> Error exn in
        let stop_us = now_us () in
        let gc1 = Gc.quick_stat () in
        if r = 0 then rss_mb := status_mb "VmRSS" :: !rss_mb;
        busy_us := !busy_us +. stop_us -. start_us;
        minor_words := !minor_words +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
        major_collections :=
          !major_collections + gc1.Gc.major_collections - gc0.Gc.major_collections;
        match outcome with
        | Error exn ->
          failures.(slot) <- failures.(slot) + 1;
          Printf.eprintf "job %d failed: %s\n%!" id (Printexc.to_string exn)
        | Ok res ->
          if !tracing then record "job" ~start_us ~stop_us;
          let ok = ref true in
          let reject key what =
            ok := false;
            Printf.eprintf "job %d (%s): %s rejected\n%!" id key what
          in
          List.iter
            (fun prog ->
              let key = key_of job prog.strategy in
              incr compiles;
              if cache_hit key prog.program then incr hits;
              let dump = lazy (Digest.string (Physical.dump prog.program)) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                distinct := (key, res.circuit, prog.strategy, Lazy.force dump) :: !distinct
              end;
              let e = prog.eps in
              if not (in_unit e.Eps.total_eps && in_unit e.Eps.gate_eps) then reject key "EPS";
              Option.iter
                (fun s ->
                  let d = s.detailed and sm = s.detailed.Executor.summary in
                  if not
                       (in_unit sm.Executor.mean_fidelity && in_unit sm.Executor.sem
                      && in_unit d.Executor.mean_leakage)
                  then reject key "fidelity, sem or leakage";
                  account acc ~key prog.program prog.cert ~trajectories:job.trajectories s)
                prog.sim;
              if r = 0 then
                Printf.bprintf digest "%s %s %s %s %s\n" key
                  (Digest.to_hex (Lazy.force dump))
                  (hex e.Eps.total_eps) (hex e.Eps.duration_ns)
                  (match prog.sim with
                  | None -> "-"
                  | Some s ->
                    let d = s.detailed and sm = s.detailed.Executor.summary in
                    String.concat " "
                      (List.map hex
                         [ sm.Executor.mean_fidelity; sm.Executor.sem; d.Executor.mean_leakage;
                           d.Executor.mean_error_draws ])))
            res.programs;
          let ms = (stop_us -. start_us) /. 1000. in
          if not !ok then failures.(slot) <- failures.(slot) + 1
          else begin
            times.(slot) <- (r, ms) :: times.(slot);
            if !tracing then begin
              incr traced_jobs;
              traced_ms := !traced_ms +. ms;
              traced_gates := !traced_gates + res.gates_in
            end
          end)
      inputs.round;
    round_us := now_us () -. round_start;
    if r = 0 then peak_rss_mb := status_mb "VmHWM";
    incr round
  done;
  current_job := -1;
  tracing := opts.trace;
  let gate = run_gate (List.rev !distinct) in
  tracing := false;
  (* A verifier error fails every repeat of the jobs that compiled that
     program. A job that failed once has no time: its repeats are not
     comparable. *)
  Array.iteri
    (fun slot job ->
      if List.exists (fun s -> Hashtbl.mem gate.bad (key_of job s)) job.strategies then
        failures.(slot) <- attempts.(slot);
      if failures.(slot) > 0 then times.(slot) <- [])
    inputs.round;
  let failed = Array.fold_left ( + ) 0 failures in
  let untraced r = not (opts.trace && r mod 2 = 1) in
  let job_ms = latencies times untraced in
  (* A p90 is reported only with at least ten samples beyond it. *)
  let with_p90 name xs =
    if List.length xs >= 100 then [ (name, "ms", percentile 0.9 xs) ] else []
  in
  let unresolved =
    if opts.trace then []
    else begin
      let trajectories =
        Array.fold_left ( + ) 0
          (Array.mapi
             (fun slot job ->
               job.trajectories * List.length (List.filter (fun (r, _) -> untraced r) times.(slot)))
             inputs.round)
      in
      let per_s n = float_of_int n /. (sum job_ms /. 1000.) in
      [ ("jobs_per_s", "1/s", per_s (List.length job_ms));
        ("job_ms_p50", "ms", percentile 0.5 job_ms) ]
      @ with_p90 "job_ms_p90" job_ms
      @ (if trajectories > 0 then [ ("traj_per_s", "1/s", per_s trajectories) ] else [])
      @ [ ("verify_ms_p50", "ms", percentile 0.5 gate.verify_ms) ]
      @ with_p90 "verify_ms_p90" gate.verify_ms
      @ [ ("peak_rss_mb", "MB", !peak_rss_mb) ]
    end
  in
  let metrics =
    if not opts.trace then
      [ ("setup_s", "s", setup_s);
        ("rss_mb", "MB", sum !rss_mb /. float_of_int (List.length !rss_mb)) ]
    else begin
      let decompose_us, probe_us_per_op, ideal_ms = probes ~seed:opts.seed gate acc in
      let span_us name =
        List.fold_left
          (fun a s -> if s.name = name && s.job > 0 then a +. (s.stop_us -. s.start_us) else a)
          0. !spans
      in
      let per_job name = span_us name /. 1000. /. float_of_int !traced_jobs in
      let per_gate name = span_us name *. 1000. /. float_of_int !traced_gates in
      let traj = float_of_int acc.traj_total in
      let traj_core_ms = acc.core_us /. 1000. /. traj in
      let layers_us =
        sum
          (List.map span_us
             [ "qasm"; "optimizer"; "compile"; "schedule"; "eps"; "resource"; "executor.plan";
               "executor.simulate" ])
      in
      let job_us = !traced_ms *. 1000. in
      let programs = float_of_int (List.length gate.structure) in
      let mean f = float_of_int (List.fold_left (fun a s -> a + f s) 0 gate.structure) /. programs in
      let dispatch cls =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt acc.dispatch cls)) /. traj
      in
      [ ("qasm.ms_per_job", "ms", per_job "qasm");
        ("qasm.ns_per_gate", "ns", per_gate "qasm");
        ("optimizer.ms_per_job", "ms", per_job "optimizer");
        ("optimizer.ns_per_gate", "ns", per_gate "optimizer");
        ("decompose.probe_us", "us", decompose_us);
        ("compile.ms_per_job", "ms", per_job "compile");
        ("compile.probe_us_per_op", "us", probe_us_per_op);
        ("compile.cache_hit_ratio", "ratio", float_of_int !hits /. float_of_int !compiles);
        ("compile.ops", "count", mean (fun (o, _, _, _) -> o));
        ("compile.two_device_ops", "count", mean (fun (_, t, _, _) -> t));
        ("compile.swap_ops", "count", mean (fun (_, _, s, _) -> s));
        ("compile.encdec_ops", "count", mean (fun (_, _, _, e) -> e));
        ("schedule.ms_per_job", "ms", per_job "schedule");
        ("eps.ms_per_job", "ms", per_job "eps");
        ("resource.ms_per_job", "ms", per_job "resource");
        ("resource.certified_peak_mb", "MB", float_of_int acc.peak_bytes /. 1e6);
        ("verify.ms_per_program", "ms", sum gate.verify_ms /. programs);
        ("verify.programs", "count", programs);
        ("executor.plan_ms", "ms", acc.plan_us /. 1000. /. float_of_int acc.sim_calls);
        ("executor.traj_core_ms", "ms", traj_core_ms);
        ("executor.noise_core_ms", "ms", traj_core_ms -. (2. *. ideal_ms));
        ("executor.error_draws_per_traj", "count", acc.draws /. traj);
        ("kernel.ideal_pass_ms", "ms", ideal_ms);
        ("kernel.computed_mb_per_traj", "MB", acc.computed_bytes /. 1e6 /. traj);
        ("kernel.computed_gbps", "GB/s", acc.computed_bytes /. 1e9 /. (acc.sim_us /. 1e6));
        ("kernel.dispatch.diagonal_per_traj", "count", dispatch "diagonal");
        ("kernel.dispatch.monomial_per_traj", "count", dispatch "monomial");
        ("kernel.dispatch.single_wire_per_traj", "count", dispatch "single_wire");
        ("gc.minor_mb_per_job", "MB", !minor_words *. 8. /. 1e6 /. float_of_int !attempted);
        ( "gc.major_collections_per_s", "1/s",
          float_of_int !major_collections /. (!busy_us /. 1e6) );
        ( "trace.overhead_pct", "%",
          100.
          *. ((percentile 0.5 (latencies times (fun r -> not (untraced r))) /. percentile 0.5 job_ms)
             -. 1.) );
        ("trace.unattributed_pct", "%", 100. *. (job_us -. layers_us) /. job_us) ]
    end
  in
  let trace_ok =
    (not opts.trace)
    ||
    let path = Printf.sprintf ".bench_build/e2e-trace-%s-%d.json" opts.workload opts.seed in
    match write_trace path ~t0 with
    | Ok (n, tracks) ->
      Printf.eprintf "trace %s: %d spans on %d track(s)\n%!" path n tracks;
      true
    | Error e ->
      Printf.eprintf "trace %s is invalid: %s\n%!" path e;
      false
  in
  let catalog_ok =
    match catalog_mismatch ~section:(if opts.trace then "per_layer" else "end_to_end") metrics with
    | None -> true
    | Some e ->
      prerr_endline e;
      false
  in
  let fields l =
    String.concat "," (List.map (fun (n, _, v) -> Printf.sprintf "\"%s\":%s" n (json_num v)) l)
  in
  Printf.printf
    "{\"workload\":\"%s\",\"seed\":%d,\"trace\":%d,\"rounds\":%d,\"jobs_per_round\":%d,\"jobs_timed\":%d,\"results_digest\":\"%s\",\"nproc\":%d,\"ocaml\":\"%s\",\"commit\":\"%s\",\"metrics\":{%s},\"unresolved\":{%s}}\n"
    opts.workload opts.seed (Bool.to_int opts.trace) !round n_jobs (List.length job_ms)
    (Digest.to_hex (Digest.string (Buffer.contents digest)))
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_commit ())
    (fields metrics) (fields unresolved);
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) (metrics @ unresolved) in
  if not finite then prerr_endline "a metric is not a finite number";
  let correct = failed = 0 && trace_ok && catalog_ok && finite in
  let result =
    Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
      !attempted failed
      (String.concat ","
         (List.map
            (fun (n, u, v) -> Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" n (json_num v) u)
            metrics))
  in
  print_endline result;
  match Json.parse result with
  | Error e ->
    Printf.eprintf "result line does not parse: %s\n" e;
    1
  | Ok _ -> if correct then 0 else 1

(* ---------------- compare ---------------- *)

(* Quartiles as Python's statistics.quantiles(xs, n=4) (exclusive method). *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then Array.make 3 (if n = 1 then a.(0) else nan)
  else
    Array.init 3 (fun k ->
        let i = k + 1 in
        let m = n + 1 in
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.)

type record = {
  rworkload : string;
  rseed : int;
  rdigest : string;
  rmetrics : (string * float) list;
  runresolved : (string * float) list;
}

(* The untraced record lines of a file of appended run outputs. *)
let records path =
  let numbers doc key =
    List.filter_map
      (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.num v))
      (Option.value ~default:[] (Option.bind (Json.member key doc) Json.obj_fields))
  in
  List.filter_map
    (fun line ->
      match Json.parse line with
      | Error _ -> None
      | Ok doc -> (
        match
          ( Json.member "workload" doc, Json.member "seed" doc, Json.member "trace" doc,
            Json.member "results_digest" doc )
        with
        | Some (Json.Str w), Some (Json.Num s), Some (Json.Num 0.), Some (Json.Str d) ->
          Some
            { rworkload = w; rseed = int_of_float s; rdigest = d; rmetrics = numbers doc "metrics";
              runresolved = numbers doc "unresolved" }
        | _ -> None))
    (String.split_on_char '\n' (read_file path))

let compare_runs a_path b_path =
  let doc =
    match Json.parse (read_file "BENCHMARK.json") with
    | Ok d -> d
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let metrics =
    match Json.member "end_to_end" doc with
    | Some (Json.Arr l) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Option.bind (Json.member "bound" m) Json.num) with
          | Some (Json.Str n), Some b -> Some (n, Some b)
          | _ -> None)
        l
    | _ -> failwith "BENCHMARK.json: no end_to_end metrics"
  in
  let a = records a_path and b = records b_path in
  let bad = ref 0 in
  Printf.printf "%-9s %-13s %5s %28s %28s %7s %7s %8s %10s\n" "workload" "metric" "n"
    "A q1/median/q3" "B q1/median/q3" "A iqr" "B iqr" "B/A-1" "bound";
  List.iter
    (fun w ->
      let ra = List.filter (fun r -> r.rworkload = w) a
      and rb = List.filter (fun r -> r.rworkload = w) b in
      (* Unresolved metrics are shown but bound nothing. *)
      let unresolved =
        List.fold_left
          (fun names r ->
            names @ List.filter (fun n -> not (List.mem n names)) (List.map fst r.runresolved))
          [] (ra @ rb)
      in
      List.iter
        (fun (name, bound) ->
          let values set =
            List.filter_map
              (fun r -> List.assoc_opt name (if bound = None then r.runresolved else r.rmetrics))
              set
          in
          let va = values ra and vb = values rb in
          if va = [] || vb = [] then begin
            incr bad;
            Printf.printf "%-9s %-13s missing in one set\n" w name
          end
          else begin
            let qa = quartiles va and qb = quartiles vb in
            let ma = percentile 0.5 va and mb = percentile 0.5 vb in
            let change = (mb /. ma) -. 1. in
            let over = match bound with Some b -> Float.abs change > b | None -> false in
            if over then incr bad;
            Printf.printf
              "%-9s %-13s %2d/%-2d %9.4g/%8.4g/%8.4g %9.4g/%8.4g/%8.4g %6.1f%% %6.1f%% %+7.1f%% %10s%s\n"
              w name (List.length va) (List.length vb) qa.(0) ma qa.(2) qb.(0) mb qb.(2)
              (100. *. (qa.(2) -. qa.(0)) /. ma)
              (100. *. (qb.(2) -. qb.(0)) /. mb)
              (100. *. change)
              (match bound with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "unresolved")
              (if over then "  DIFFERS" else "")
          end)
        (metrics @ List.map (fun n -> (n, None)) unresolved);
      let runs = List.filter (fun r -> r.rworkload = w) (a @ b) in
      List.iter
        (fun seed ->
          let digests =
            List.sort_uniq compare
              (List.filter_map (fun r -> if r.rseed = seed then Some r.rdigest else None) runs)
          in
          if List.length digests > 1 then begin
            incr bad;
            Printf.printf "%-9s seed %d: results_digest differs (%s)\n" w seed
              (String.concat ", " digests)
          end)
        (List.sort_uniq compare (List.map (fun r -> r.rseed) runs)))
    (List.sort_uniq compare (List.map (fun r -> r.rworkload) (a @ b)));
  if !bad = 0 then 0 else 1

(* ---------------- command line ---------------- *)

let usage =
  "e2e.exe --workload {ladder|sweep|requests|noise} --seed N --seconds S --trace {0|1} [--jobs N]\n\
   e2e.exe compare A.jsonl B.jsonl"

let () =
  let code =
    match Array.to_list Sys.argv with
    | [ _; "compare"; a; b ] -> compare_runs a b
    | _ :: "compare" :: _ ->
      prerr_endline usage;
      2
    | _ -> (
      let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0
      and jobs = ref max_int in
      let specs =
        [ ("--workload", Arg.Set_string workload, "NAME workload to run");
          ("--seed", Arg.Set_int seed, "N input seed");
          ("--seconds", Arg.Set_float seconds, "S how long to measure");
          ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
          ("--jobs", Arg.Set_int jobs, "N run only the first N jobs of the round (smoke tests)") ]
      in
      match Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage with
      | exception Arg.Bad msg ->
        prerr_endline msg;
        2
      | exception Arg.Help msg ->
        print_string msg;
        0
      | () -> (
        match List.filter (fun v -> Sys.getenv_opt v <> None) pinned_env with
        | _ :: _ as set ->
          Printf.eprintf "refusing to run: %s set; it changes what is measured\n"
            (String.concat ", " set);
          2
        | [] ->
          if not (List.mem_assoc !workload workloads) || (!trace <> 0 && !trace <> 1) then begin
            prerr_endline usage;
            2
          end
          else
            run
              { workload = !workload; seed = !seed; seconds = Float.max 0. !seconds;
                trace = !trace = 1; jobs = max 1 !jobs }))
  in
  exit code
