(* Standalone determinism harness, run under several WALTZ_DOMAINS settings
   by the dune [determinism] alias. For a grid of benchmark circuits and
   compilation strategies it checks that the env-default execution, the
   forced-sequential path ([~domains:1]) and a forced multi-domain fan-out
   ([~domains:3]) all produce bit-identical statistics. Exits non-zero on
   the first mismatch. *)
open Waltz_circuit
open Waltz_noise
open Waltz_core

let failures = ref 0

let check label a b =
  if not (Float.equal a b) then begin
    incr failures;
    Printf.eprintf "MISMATCH %s: %.17g <> %.17g\n" label a b
  end

let check_string label a b =
  if not (String.equal a b) then begin
    incr failures;
    Printf.eprintf "MISMATCH %s: serialized reports differ\n" label
  end

let () =
  let circuits =
    [ ("toffoli", Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ]);
      ("cnu5", Waltz_benchmarks.Bench_circuits.by_total_qubits Cnu 5);
      ("cuccaro5", Waltz_benchmarks.Bench_circuits.by_total_qubits Cuccaro 5) ]
  in
  let strategies =
    [ Strategy.qubit_only; Strategy.mixed_radix_ccz; Strategy.full_ququart ]
  in
  let config = { Executor.model = Noise.default; trajectories = 6; base_seed = 11 } in
  List.iter
    (fun (cname, circuit) ->
      List.iter
        (fun (strategy : Strategy.t) ->
          let compiled = Compile.compile strategy circuit in
          (* Compile determinism under this WALTZ_DOMAINS setting: a
             repeated fresh compile, the program-cache miss and the hit
             path must all serialize byte-identically under the canonical
             hex-float dump (%h floats, so any ULP drift shows), and must
             match the program compiled above through the default cache
             state. *)
          let lc field = Printf.sprintf "%s/%s %s" cname strategy.Strategy.name field in
          Compile.set_program_cache false;
          Compile.program_cache_clear ();
          let fresh = Physical.dump (Compile.compile strategy circuit) in
          check_string (lc "compile-repeat") fresh
            (Physical.dump (Compile.compile strategy circuit));
          Compile.set_program_cache true;
          Compile.program_cache_clear ();
          check_string (lc "compile-cache-miss") fresh
            (Physical.dump (Compile.compile strategy circuit));
          check_string (lc "compile-cache-hit") fresh
            (Physical.dump (Compile.compile strategy circuit));
          check_string (lc "compile-vs-initial") fresh (Physical.dump compiled);
          let default_run = Executor.simulate_detailed ~config compiled in
          let compare tag other =
            let l field = Printf.sprintf "%s/%s %s %s" cname strategy.Strategy.name tag field in
            check (l "mean_fidelity")
              default_run.Executor.summary.Executor.mean_fidelity
              other.Executor.summary.Executor.mean_fidelity;
            check (l "sem") default_run.Executor.summary.Executor.sem
              other.Executor.summary.Executor.sem;
            check (l "mean_leakage") default_run.Executor.mean_leakage
              other.Executor.mean_leakage;
            check (l "mean_error_draws") default_run.Executor.mean_error_draws
              other.Executor.mean_error_draws
          in
          compare "domains=1" (Executor.simulate_detailed ~config ~domains:1 compiled);
          compare "domains=3" (Executor.simulate_detailed ~config ~domains:3 compiled);
          (* The lockstep SoA engine must be bit-identical at every batch
             width × domain count, one-lane blocks (batch=1) included (the
             env default above already ran at WALTZ_BATCH or width 8). *)
          List.iter
            (fun batch ->
              compare
                (Printf.sprintf "batch=%d" batch)
                (Executor.simulate_detailed ~config ~batch compiled);
              compare
                (Printf.sprintf "batch=%d/domains=1" batch)
                (Executor.simulate_detailed ~config ~domains:1 ~batch compiled);
              compare
                (Printf.sprintf "batch=%d/domains=3" batch)
                (Executor.simulate_detailed ~config ~domains:3 ~batch compiled))
            [ 1; 2; 7; 32 ];
          (* Telemetry must be observationally invisible: recording spans and
             counters may not perturb the RNG streams or the reduction order,
             so the statistics stay bit-identical with the flag on. *)
          Waltz_telemetry.Telemetry.reset ();
          Waltz_telemetry.Telemetry.enable ();
          compare "telemetry-on" (Executor.simulate_detailed ~config compiled);
          compare "telemetry-on/domains=3"
            (Executor.simulate_detailed ~config ~domains:3 compiled);
          Waltz_telemetry.Telemetry.disable ();
          (* Same bar for the flight recorder (also reachable via
             WALTZ_FLIGHT=1, covered by its own determinism rule): ring
             writes may not perturb the statistics, alone or stacked on
             telemetry, at any domain count or batch width. *)
          let module Recorder = Waltz_telemetry.Recorder in
          Recorder.reset ();
          Recorder.arm ();
          compare "recorder-on" (Executor.simulate_detailed ~config compiled);
          compare "recorder-on/domains=3"
            (Executor.simulate_detailed ~config ~domains:3 compiled);
          compare "recorder-on/batch=2"
            (Executor.simulate_detailed ~config ~batch:2 compiled);
          Waltz_telemetry.Telemetry.reset ();
          Waltz_telemetry.Telemetry.enable ();
          compare "recorder+telemetry/domains=3"
            (Executor.simulate_detailed ~config ~domains:3 compiled);
          Waltz_telemetry.Telemetry.disable ();
          if not (Sys.getenv_opt "WALTZ_FLIGHT" = Some "1") then Recorder.disarm ();
          Recorder.reset ();
          (* The sanitizer must be observationally invisible in both states:
             with the flag off every shim is one atomic branch, so the
             statistics stay bit-identical at every domain count; with the
             flag on the recorder may observe but not perturb — same
             bit-identity, and a clean production run must yield zero
             findings. *)
          let module Sanitize = Waltz_sanitizer.Sanitize in
          Sanitize.reset ();
          Sanitize.enable ();
          compare "sanitizer-on" (Executor.simulate_detailed ~config compiled);
          compare "sanitizer-on/domains=1"
            (Executor.simulate_detailed ~config ~domains:1 compiled);
          compare "sanitizer-on/domains=3"
            (Executor.simulate_detailed ~config ~domains:3 compiled);
          Sanitize.disable ();
          (match Sanitize.findings () with
          | [] -> ()
          | f :: _ ->
            incr failures;
            Printf.eprintf "SANITIZER finding on clean run %s/%s: %s %s: %s\n" cname
              strategy.Strategy.name f.Sanitize.rule f.Sanitize.site f.Sanitize.message);
          Sanitize.reset ();
          compare "sanitizer-off" (Executor.simulate_detailed ~config compiled);
          (* The kernel memo must be semantically invisible: every repeat
             above already read it, but pin it down — one more warm call
             must reproduce the cold-plan statistics bit-for-bit, and a
             changed noise model (different error probabilities and damping
             tables over the same kernels) must not be served stale
             tables. *)
          compare "kernel-memo-warm" (Executor.simulate_detailed ~config compiled);
          let scaled =
            { config with
              Executor.model =
                { Noise.default with
                  Noise.ww_error_scale = 2. *. Noise.default.Noise.ww_error_scale } }
          in
          let cold = Executor.simulate_detailed ~config:scaled ~domains:1 compiled in
          let warm = Executor.simulate_detailed ~config:scaled ~domains:3 compiled in
          let l field = Printf.sprintf "%s/%s scaled-model %s" cname strategy.Strategy.name field in
          check (l "mean_fidelity") cold.Executor.summary.Executor.mean_fidelity
            warm.Executor.summary.Executor.mean_fidelity;
          check (l "mean_leakage") cold.Executor.mean_leakage warm.Executor.mean_leakage;
          (* The static checker must be deterministic under every
             WALTZ_DOMAINS setting, and telemetry must stay off-path: the
             SARIF serialization is bit-identical with the flag on. *)
          let verify_sarif () =
            Waltz_verify.Sarif.to_sarif (Waltz_verify.Verify.run (Some circuit) compiled)
          in
          let sarif_off = verify_sarif () in
          Waltz_telemetry.Telemetry.reset ();
          Waltz_telemetry.Telemetry.enable ();
          let sarif_on = verify_sarif () in
          Waltz_telemetry.Telemetry.disable ();
          check_string
            (Printf.sprintf "%s/%s verify SARIF telemetry-on" cname strategy.Strategy.name)
            sarif_off sarif_on;
          check_string
            (Printf.sprintf "%s/%s verify SARIF repeat" cname strategy.Strategy.name)
            sarif_off (verify_sarif ());
          (* The resource certificate pins its default shape at 1/1/1
             (never the WALTZ_BATCH/WALTZ_DOMAINS env), so its canonical
             dump must be bit-identical under every grid setting, with
             telemetry on or off and across repeats — and certifying must
             stay off-path for the simulator. *)
          let module Resource = Waltz_analysis.Resource in
          let cert_dump () = Resource.dump (Resource.certify compiled) in
          let cert_off = cert_dump () in
          Waltz_telemetry.Telemetry.reset ();
          Waltz_telemetry.Telemetry.enable ();
          let cert_on = cert_dump () in
          Waltz_telemetry.Telemetry.disable ();
          check_string
            (Printf.sprintf "%s/%s certificate telemetry-on" cname strategy.Strategy.name)
            cert_off cert_on;
          check_string
            (Printf.sprintf "%s/%s certificate repeat" cname strategy.Strategy.name)
            cert_off (cert_dump ());
          compare "post-certify" (Executor.simulate_detailed ~config compiled))
        strategies)
    circuits;
  (* The parallel strategy portfolio must be element-for-element
     byte-identical to a serial List.map — at the env-default domain
     count and when forced sequential or wide, with the program cache
     off (fresh compiles on worker domains) and on (shared MRU cache
     under its mutex). *)
  let jobs =
    List.concat_map
      (fun (_, circuit) -> List.map (fun s -> (s, circuit)) strategies)
      circuits
  in
  Compile.set_program_cache false;
  Compile.program_cache_clear ();
  let serial = Array.of_list (List.map (fun (s, c) -> Physical.dump (Compile.compile s c)) jobs) in
  let check_portfolio tag programs =
    List.iteri
      (fun i p ->
        if not (String.equal (Physical.dump p) serial.(i)) then begin
          incr failures;
          Printf.eprintf "MISMATCH compile_all %s: job %d differs from the serial compile\n"
            tag i
        end)
      programs
  in
  check_portfolio "default" (Compile.compile_all jobs);
  check_portfolio "domains=1" (Compile.compile_all ~domains:1 jobs);
  check_portfolio "domains=3" (Compile.compile_all ~domains:3 jobs);
  Compile.set_program_cache true;
  Compile.program_cache_clear ();
  check_portfolio "cached" (Compile.compile_all jobs);
  (* The checker report of every portfolio-compiled program must
     serialize byte-identically to the report of its serial compile. *)
  let verify_sarif (c, p) = Waltz_verify.Sarif.to_sarif (Waltz_verify.Verify.run (Some c) p) in
  let serial_sarif =
    Array.of_list (List.map (fun (s, c) -> verify_sarif (c, Compile.compile s c)) jobs)
  in
  let jobs_arr = Array.of_list jobs in
  List.iteri
    (fun i p ->
      if not (String.equal (verify_sarif (snd jobs_arr.(i), p)) serial_sarif.(i)) then begin
        incr failures;
        Printf.eprintf
          "MISMATCH verify portfolio: job %d report differs from the serial compile's\n" i
      end)
    (Compile.compile_all jobs);
  if !failures > 0 then begin
    Printf.eprintf "determinism: %d mismatches\n" !failures;
    exit 1
  end;
  Printf.printf
    "determinism: OK (%d circuits x %d strategies, WALTZ_DOMAINS=%s, default=%d domains, \
     WALTZ_BATCH=%s, default=%d lanes, WALTZ_FLIGHT=%s)\n"
    (List.length circuits) (List.length strategies)
    (Option.value ~default:"unset" (Sys.getenv_opt "WALTZ_DOMAINS"))
    (Waltz_runtime.Pool.default_domains ())
    (Option.value ~default:"unset" (Sys.getenv_opt "WALTZ_BATCH"))
    (Executor.default_batch ())
    (Option.value ~default:"unset" (Sys.getenv_opt "WALTZ_FLIGHT"))
