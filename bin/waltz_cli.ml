(* Command-line front end for the Quantum Waltz compiler.

   Examples:
     waltz_cli compile  -c cuccaro -n 8 -s full-ququart --ops
     waltz_cli estimate -c cnu -n 13
     waltz_cli simulate -c qram -n 7 -s mr-ccz --trajectories 100
     waltz_cli sweep    -c cuccaro -n 7 --knob gate-error --values 1,2,4
     waltz_cli rb       --samples 50
     waltz_cli pulse    --target hh --duration 90 *)

open Cmdliner
open Waltz_circuit
open Waltz_core
open Waltz_noise
module Telemetry = Waltz_telemetry.Telemetry
module Recorder = Waltz_telemetry.Recorder
module Profiler = Waltz_telemetry.Profiler
module Regress = Waltz_telemetry.Regress

(* ---- shared arguments ---- *)

let strategy_of_name name =
  match List.find_opt (fun s -> s.Strategy.name = name) Strategy.all with
  | Some s -> Ok s
  | None ->
    Error
      (Printf.sprintf "unknown strategy %s (known: %s)" name
         (String.concat ", " (List.map (fun s -> s.Strategy.name) Strategy.all)))

let strategy_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (strategy_of_name s) in
  let print ppf s = Format.pp_print_string ppf s.Strategy.name in
  Arg.conv (parse, print)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  contents

let circuit_of ~family ~n ~cx_fraction ~qasm ~optimize =
  let base =
    match qasm with
    | Some path -> begin
      try Ok (Qasm.of_string (read_file path)) with
      | Failure msg -> Error msg
      | Sys_error msg -> Error msg
      | Invalid_argument msg -> Error msg
    end
    | None -> begin
      (* The generators reject sizes they cannot build with
         Invalid_argument. *)
      try
        match String.lowercase_ascii family with
        | "cnu" -> Ok (Waltz_benchmarks.Bench_circuits.by_total_qubits Cnu n)
        | "cuccaro" -> Ok (Waltz_benchmarks.Bench_circuits.by_total_qubits Cuccaro n)
        | "qram" -> Ok (Waltz_benchmarks.Bench_circuits.by_total_qubits Qram n)
        | "select" -> Ok (Waltz_benchmarks.Bench_circuits.by_total_qubits Select n)
        | "grover" ->
          let bits = max 2 ((n + 1) / 2) in
          Ok
            (Waltz_benchmarks.Bench_circuits.grover ~address_bits:bits
               ~marked:((1 lsl bits) - 1) ~iterations:1)
        | "synthetic" ->
          Ok
            (Waltz_benchmarks.Bench_circuits.synthetic ~n ~gates:(4 * n) ~cx_fraction
               ~seed:42)
        | other -> Error (Printf.sprintf "unknown circuit family %s" other)
      with Invalid_argument msg -> Error (Printf.sprintf "%s -n %d: %s" family n msg)
    end
  in
  Result.map (fun c -> if optimize then Optimizer.simplify c else c) base

let topology_of name devices =
  match String.lowercase_ascii name with
  | "mesh" -> Ok (Waltz_arch.Topology.mesh devices)
  | "line" -> Ok (Waltz_arch.Topology.line devices)
  | "ring" -> Ok (Waltz_arch.Topology.ring devices)
  | "heavy-hex" | "heavyhex" -> Ok (Waltz_arch.Topology.heavy_hex devices)
  | other -> Error (Printf.sprintf "unknown topology %s (mesh, line, ring, heavy-hex)" other)

let family_arg =
  Arg.(
    value
    & opt string "cuccaro"
    & info [ "c"; "circuit" ] ~docv:"FAMILY"
        ~doc:"Circuit family: cnu, cuccaro, qram, select, grover or synthetic.")

let qasm_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "qasm" ] ~docv:"FILE" ~doc:"Read the circuit from an OpenQASM 2.0 file.")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ] ~doc:"Run the peephole optimizer before compiling.")

let topology_arg =
  Arg.(
    value
    & opt string "mesh"
    & info [ "topology" ] ~docv:"TOPO" ~doc:"mesh (default), line, ring or heavy-hex.")

let n_arg =
  Arg.(value & opt int 7 & info [ "n" ] ~docv:"N" ~doc:"Total qubit budget (>= 5).")

let cx_fraction_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "cx-fraction" ] ~docv:"F" ~doc:"CX share for the synthetic family.")

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Strategy.mixed_radix_ccz
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:"Compilation strategy (see waltz_cli compile --help).")

let trajectories_arg =
  Arg.(
    value & opt int 50 & info [ "trajectories" ] ~docv:"K" ~doc:"Trajectories per point.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Domains for the trajectory engine (default: \\$(b,WALTZ_DOMAINS) or the \
           machine's recommended count; 1 = sequential). Results are identical at \
           every setting.")

let batch_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "batch" ] ~docv:"B"
        ~doc:
          "Lockstep trajectory batch width for the SoA engine (default: \
           \\$(b,WALTZ_BATCH) or 8). Results are identical at every setting.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Enable telemetry and append its report (per-phase spans, counters, \
           histograms) to the output.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable telemetry and write a Chrome trace_event JSON file (open in \
           chrome://tracing or https://ui.perfetto.dev; one track per domain).")

let output_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")

(* Writes a subcommand's report to [-o FILE], announcing the file on stdout,
   or to stdout itself. *)
let write_output output text =
  match output with
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s\n" path
  | None -> print_string text

(* Telemetry bracket shared by the instrumented subcommands: [--stats] and/or
   [--trace FILE] switch the process-wide flag on around the command body. *)
let with_telemetry ~stats ~trace f =
  let on = stats || trace <> None in
  if on then begin
    Telemetry.reset ();
    Telemetry.enable ()
  end;
  let rc = f () in
  if on then begin
    Telemetry.disable ();
    if stats then print_string (Telemetry.Report.to_string ());
    match trace with
    | Some path ->
      Telemetry.Trace.write path;
      Printf.printf "wrote trace %s\n" path;
      let dropped = Recorder.dropped () in
      if dropped > 0 then
        Printf.printf "  (ring wraparound dropped the oldest %d events, capacity %d per domain)\n"
          dropped (Recorder.capacity ())
    | None -> ()
  end;
  rc

let with_circuit ?(qasm = None) ?(optimize = false) ?(reroll = false) family n cx_fraction f =
  match
    Result.map
      (fun c -> if reroll then Resynthesis.reroll c else c)
      (circuit_of ~family ~n ~cx_fraction ~qasm ~optimize)
  with
  | Error e ->
    prerr_endline e;
    1
  | Ok circuit -> f circuit

(* The executor refuses a register past its memory guard with
   Invalid_argument; the subcommands that simulate check each program
   first, and [with_simulable] reports the first one too large in one
   line. *)
exception Unsimulable of string

let check_simulable (p : Physical.t) =
  let limit = Executor.max_devices ~device_dim:p.Physical.device_dim in
  if p.Physical.device_count > limit then
    raise
      (Unsimulable
         (Printf.sprintf "%s needs %d devices of dimension %d; the simulator holds at most %d"
            p.Physical.strategy.Strategy.name p.Physical.device_count p.Physical.device_dim
            limit))

let with_simulable cmd f =
  try f ()
  with Unsimulable msg ->
    Printf.eprintf "%s: %s\n" cmd msg;
    1

(* The four benchmark families at [n] qubits, for the grid subcommands. *)
let with_families cmd n f =
  let module B = Waltz_benchmarks.Bench_circuits in
  match List.map (fun family -> (family, B.by_total_qubits family n)) B.all_families with
  | circuits -> f circuits
  | exception Invalid_argument msg ->
    Printf.eprintf "%s: -n %d: %s\n" cmd n msg;
    1

(* Subcommands that report trajectory statistics need at least one
   trajectory: with none, every mean is 0/0. *)
let with_trajectories cmd trajectories f =
  if trajectories < 1 then begin
    Printf.eprintf "%s: --trajectories must be at least 1 (got %d)\n" cmd trajectories;
    1
  end
  else f ()

(* ---- compile ---- *)

let compile_cmd =
  let run family n cx_fraction strategy show_ops qasm optimize reroll topology emit_qasm
      stats trace =
    with_circuit ~qasm ~optimize ~reroll family n cx_fraction (fun circuit ->
        let devices = Compile.device_count strategy circuit.Circuit.n in
        match topology_of topology devices with
        | Error e ->
          prerr_endline e;
          1
        | Ok topology ->
          with_telemetry ~stats ~trace (fun () ->
              let compiled = Compile.compile ~topology strategy circuit in
              let one, two, three = Circuit.count_by_arity circuit in
              Printf.printf "circuit: %d qubits, %d gates (%d/%d/%d by arity)\n"
                circuit.Circuit.n (Circuit.gate_count circuit) one two three;
              (* One Eps.estimate serves both the summary line and the EPS
                 line: its duration used to be recomputed by
                 Physical.summary and then discarded here. *)
              let eps = Eps.estimate compiled in
              Printf.printf "%s: %d ops (%d multi-device), duration %.0f ns\n"
                strategy.Strategy.name (Physical.op_count compiled)
                (Physical.two_device_op_count compiled) eps.Eps.duration_ns;
              Printf.printf "gate EPS %.4f, coherence EPS %.4f, total %.4f\n"
                eps.Eps.gate_eps eps.Eps.coherence_eps eps.Eps.total_eps;
              if stats then begin
                Printf.printf "per-op breakdown:\n";
                Printf.printf "  %-14s %6s %12s %14s\n" "label" "count" "total(ns)"
                  "error budget";
                List.iter
                  (fun (r : Eps.label_report) ->
                    Printf.printf "  %-14s %6d %12.0f %14.5f\n" r.Eps.op_label r.Eps.count
                      r.Eps.total_ns r.Eps.error_budget)
                  (Eps.label_breakdown compiled)
              end;
              if show_ops then print_string (Format.asprintf "%a" Physical.pp_ops compiled);
              (match emit_qasm with
              | Some path ->
                let oc = open_out path in
                output_string oc (Qasm.to_string circuit);
                close_out oc;
                Printf.printf "wrote %s\n" path
              | None -> ());
              0))
  in
  let show_ops =
    Arg.(value & flag & info [ "ops" ] ~doc:"Print the scheduled physical ops.")
  in
  let reroll_arg =
    Arg.(
      value & flag
      & info [ "reroll" ]
          ~doc:"Resynthesize three-qubit gates from two-qubit runs before compiling.")
  in
  let emit_qasm =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-qasm" ] ~docv:"FILE" ~doc:"Write the logical circuit as OpenQASM 2.0.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a benchmark or QASM circuit and report its schedule")
    Term.(
      const run $ family_arg $ n_arg $ cx_fraction_arg $ strategy_arg $ show_ops $ qasm_arg
      $ optimize_arg $ reroll_arg $ topology_arg $ emit_qasm $ stats_arg $ trace_arg)

(* ---- estimate ---- *)

let estimate_cmd =
  let run family n cx_fraction =
    with_circuit family n cx_fraction (fun circuit ->
        Printf.printf "%-18s %8s %10s %10s %10s %12s\n" "strategy" "2-dev" "gateEPS"
          "cohEPS" "totalEPS" "duration";
        List.iter
          (fun strategy ->
            let compiled = Compile.compile strategy circuit in
            let eps = Eps.estimate compiled in
            Printf.printf "%-18s %8d %10.4f %10.4f %10.4f %9.0f ns\n"
              strategy.Strategy.name
              (Physical.two_device_op_count compiled)
              eps.Eps.gate_eps eps.Eps.coherence_eps eps.Eps.total_eps eps.Eps.duration_ns)
          Strategy.fig7_set;
        0)
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"EPS estimates for every strategy (no simulation)")
    Term.(const run $ family_arg $ n_arg $ cx_fraction_arg)

(* ---- simulate ---- *)

let simulate_cmd =
  let run family n cx_fraction strategy trajectories seed qasm optimize domains batch
      stats trace =
    with_trajectories "simulate" trajectories @@ fun () ->
    with_circuit ~qasm ~optimize family n cx_fraction (fun circuit ->
        with_simulable "simulate" @@ fun () ->
        with_telemetry ~stats ~trace (fun () ->
            let compiled = Compile.compile strategy circuit in
            check_simulable compiled;
            let d =
              Executor.simulate_detailed
                ~config:{ Executor.model = Noise.default; trajectories; base_seed = seed }
                ?domains ?batch compiled
            in
            let result = d.Executor.summary in
            Printf.printf "%s\n" (Physical.summary compiled);
            Printf.printf "simulated fidelity: %.4f +- %.4f (%d trajectories)\n"
              result.Executor.mean_fidelity result.Executor.sem result.Executor.trajectories;
            Printf.printf "mean leakage %.4f, mean error draws %.2f per trajectory\n"
              d.Executor.mean_leakage d.Executor.mean_error_draws;
            0))
  in
  let seed = Arg.(value & opt int 2023 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Trajectory-method fidelity of a compiled circuit")
    Term.(
      const run $ family_arg $ n_arg $ cx_fraction_arg $ strategy_arg $ trajectories_arg
      $ seed $ qasm_arg $ optimize_arg $ domains_arg $ batch_arg $ stats_arg $ trace_arg)

(* ---- sweep ---- *)

let sweep_cmd =
  let run family n cx_fraction knob values trajectories domains batch =
    with_trajectories "sweep" trajectories @@ fun () ->
    with_simulable "sweep" @@ fun () ->
    (* Every value is checked before anything compiles: a scale that is
       not finite, a negative gate-error scale or a coherence divisor that
       is not positive would simulate to a meaningless fidelity. *)
    let model_of v =
      match knob with
      | ("gate-error" | "coherence") when not (Float.is_finite v) ->
        Error (Printf.sprintf "sweep: %s value %g is not finite" knob v)
      | "gate-error" when v < 0. ->
        Error (Printf.sprintf "sweep: gate-error scale %g is negative" v)
      | "gate-error" -> Ok { Noise.default with Noise.ww_error_scale = v }
      | "coherence" when v <= 0. ->
        Error (Printf.sprintf "sweep: coherence divisor %g must be positive" v)
      | "coherence" -> Ok { Noise.default with Noise.t1_high_scale = v }
      | other -> Error (Printf.sprintf "sweep: unknown knob %s (gate-error, coherence)" other)
    in
    let models = List.map model_of values in
    match List.find_map (function Error e -> Some e | Ok _ -> None) models with
    | Some e ->
      prerr_endline e;
      1
    | None ->
      with_circuit family n cx_fraction (fun circuit ->
          let strategies =
            [ Strategy.qubit_only; Strategy.qubit_itoffoli; Strategy.mixed_radix_ccz;
              Strategy.full_ququart ]
          in
          (* The compiled programs do not depend on the noise knob, so the
             whole strategy portfolio is compiled once up front — in
             parallel over the shared pool — and reused for every value. *)
          let compiled_portfolio =
            Compile.compile_all ?domains (List.map (fun s -> (s, circuit)) strategies)
          in
          List.iter check_simulable compiled_portfolio;
          Printf.printf "%-8s" "value";
          List.iter (fun s -> Printf.printf " %-16s" s.Strategy.name) strategies;
          print_newline ();
          List.iter
            (fun (v, model) ->
              Printf.printf "%-8.2f" v;
              List.iter
                (fun compiled ->
                  let result =
                    Executor.simulate
                      ~config:{ Executor.model; trajectories; base_seed = 2023 }
                      ?domains ?batch compiled
                  in
                  Printf.printf " %-16.4f" result.Executor.mean_fidelity)
                compiled_portfolio;
              print_newline ())
            (List.combine values (List.map Result.get_ok models));
          0)
  in
  let knob =
    Arg.(
      value
      & opt string "gate-error"
      & info [ "knob" ] ~docv:"KNOB" ~doc:"Sensitivity knob: gate-error or coherence.")
  in
  let values =
    Arg.(
      value
      & opt (list float) [ 1.; 2.; 4. ]
      & info [ "values" ] ~docv:"V1,V2,…"
          ~doc:
            "Comma-separated knob values. A list that starts with a negative number is \
             written $(b,--values=-1,2): a bare -1 reads as an option.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sensitivity sweeps (the Fig. 9 studies)")
    Term.(
      const run $ family_arg $ n_arg $ cx_fraction_arg $ knob $ values $ trajectories_arg
      $ domains_arg $ batch_arg)

(* ---- breakdown ---- *)

let breakdown_cmd =
  let run family n cx_fraction strategy =
    with_circuit family n cx_fraction (fun circuit ->
        let compiled = Compile.compile strategy circuit in
        Printf.printf "%s\n" (Physical.summary compiled);
        Printf.printf "%-8s %10s %10s %12s %10s\n" "device" "busy(ns)" "idle(ns)"
          "encoded(ns)" "survival";
        List.iter
          (fun (r : Eps.device_report) ->
            Printf.printf "%-8d %10.0f %10.0f %12.0f %10.4f\n" r.Eps.device r.Eps.busy_ns
              r.Eps.idle_ns r.Eps.encoded_ns r.Eps.survival)
          (Eps.device_breakdown compiled);
        0)
  in
  Cmd.v
    (Cmd.info "breakdown" ~doc:"Per-device coherence budget of a compiled circuit")
    Term.(const run $ family_arg $ n_arg $ cx_fraction_arg $ strategy_arg)

(* ---- verify ---- *)

let verify_cmd =
  let module Verify = Waltz_verify.Verify in
  let module Diagnostic = Waltz_verify.Diagnostic in
  let module Sarif = Waltz_verify.Sarif in
  let run family n cx_fraction strategy all_strategies topology qasm optimize rules format
      passes output stats trace =
    let known = String.concat ", " (List.map Verify.pass_name Verify.all_passes) in
    let passes =
      match String.lowercase_ascii passes with
      | "" | "all" -> Ok Verify.all_passes
      | spec ->
        List.fold_right
          (fun name acc ->
            match (acc, Verify.pass_of_name (String.trim name)) with
            | Ok ps, Some p -> Ok (p :: ps)
            | Ok _, None ->
              Error (Printf.sprintf "verify: unknown pass %s (known: %s)" name known)
            | (Error _ as e), _ -> e)
          (String.split_on_char ',' spec)
          (Ok [])
    in
    match (passes, format) with
    | _ when rules ->
      Format.printf "%a@?" Waltz_verify.Rules.pp_catalog ();
      0
    | Error e, _ ->
      prerr_endline e;
      1
    | Ok _, fmt when fmt <> "text" && fmt <> "json" && fmt <> "sarif" ->
      Printf.eprintf "verify: unknown format %s (text, json, sarif)\n" fmt;
      1
    | Ok passes, format ->
      with_circuit ~qasm ~optimize family n cx_fraction (fun circuit ->
          with_telemetry ~stats ~trace (fun () ->
              let chosen = if all_strategies then Strategy.all else [ strategy ] in
              let rc = ref 0 in
              let buf = Buffer.create 4096 in
              let sarif_runs = ref [] in
              List.iter
                (fun strategy ->
                  let devices = Compile.device_count strategy circuit.Circuit.n in
                  match topology_of topology devices with
                  | Error e ->
                    prerr_endline e;
                    rc := 1
                  | Ok topo ->
                    let compiled = Compile.compile ~topology:topo strategy circuit in
                    let report = Verify.run ~topology:topo ~passes (Some circuit) compiled in
                    (match format with
                    | "json" -> Buffer.add_string buf (Sarif.to_json report ^ "\n")
                    | "sarif" -> sarif_runs := (strategy.Strategy.name, report) :: !sarif_runs
                    | _ ->
                      Buffer.add_string buf (Printf.sprintf "== %s ==\n" strategy.Strategy.name);
                      Buffer.add_string buf
                        (Format.asprintf "%a@." Diagnostic.pp_report report));
                    if not (Diagnostic.is_clean report) then rc := 1)
                chosen;
              (* One SARIF document: a single report as before, one run per
                 strategy with --all-strategies. *)
              (match List.rev !sarif_runs with
              | [ (_, report) ] when not all_strategies ->
                Buffer.add_string buf (Sarif.to_sarif report ^ "\n")
              | _ :: _ as runs -> Buffer.add_string buf (Sarif.to_sarif_runs runs ^ "\n")
              | [] -> ());
              write_output output (Buffer.contents buf);
              !rc))
  in
  let all_strategies_arg =
    Arg.(
      value & flag
      & info [ "all-strategies" ] ~doc:"Verify the compilation under every strategy.")
  in
  let rules_arg =
    Arg.(
      value & flag
      & info [ "rules" ] ~doc:"Print the checker's rule catalog and exit.")
  in
  let format_arg =
    Arg.(
      value
      & opt string "text"
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: text (default), json, or sarif (SARIF 2.1.0; one document, \
             with one run per strategy under --all-strategies).")
  in
  let passes_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "passes" ] ~docv:"P1,P2"
          ~doc:
            "Comma-separated pass subset: structural, occupancy, topology, schedule, \
             calibration, equivalence, stabilizer, leakage, cost, liveness.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Statically check a compiled program against the checker's rules")
    Term.(
      const run $ family_arg $ n_arg $ cx_fraction_arg $ strategy_arg $ all_strategies_arg
      $ topology_arg $ qasm_arg $ optimize_arg $ rules_arg $ format_arg
      $ passes_arg $ output_file_arg $ stats_arg $ trace_arg)

(* ---- budget ---- *)

let budget_cmd =
  let module Resource = Waltz_analysis.Resource in
  let module Diagnostic = Waltz_verify.Diagnostic in
  let module Sarif = Waltz_verify.Sarif in
  let module Pool = Waltz_runtime.Pool in
  let run family n cx_fraction strategy trajectories seed qasm optimize domains batch
      limit_bytes limit_ms static format output =
    if format <> "text" && format <> "sarif" then begin
      Printf.eprintf "unknown format %s (text, sarif)\n" format;
      1
    end
    else
      with_circuit ~qasm ~optimize family n cx_fraction (fun circuit ->
          let compiled = Compile.compile strategy circuit in
          (* Certify the shape the run below will actually use: explicit
             flags first, then the same environment defaults the executor
             would resolve. *)
          let domains =
            match domains with Some d -> max 1 d | None -> Pool.default_domains ()
          in
          let batch =
            match batch with Some b -> max 1 b | None -> Executor.default_batch ()
          in
          let emit ~dump ~summary diagnostics =
            let report =
              { Diagnostic.diagnostics = summary @ diagnostics;
                ops_checked = List.length compiled.Physical.ops;
                passes_run = [ "res" ] }
            in
            let body =
              match format with
              | "sarif" -> Sarif.to_sarif report ^ "\n"
              | _ ->
                let buf = Buffer.create 1024 in
                Buffer.add_string buf dump;
                List.iter
                  (fun d -> Buffer.add_string buf (Format.asprintf "%a@." Diagnostic.pp d))
                  diagnostics;
                Buffer.add_string buf
                  (if Diagnostic.is_clean report then "within budget: admitted\n"
                   else "over budget or diverged: rejected\n");
                Buffer.contents buf
            in
            write_output output body;
            if Diagnostic.is_clean report then 0 else 1
          in
          match Resource.certify ~trajectories ~batch ~domains compiled with
          | exception Resource.Too_large ->
            emit ~dump:"" ~summary:[]
              [ Diagnostic.error "RES01"
                  (Printf.sprintf
                     "%s on %d devices of dimension %d: the amplitude count or a byte \
                      figure exceeds %d, so the run cannot be certified"
                     strategy.Strategy.name compiled.Physical.device_count
                     compiled.Physical.device_dim max_int) ]
          | cert ->
            let budget_diags = Resource.check_budget cert { Resource.limit_bytes; limit_ms } in
            let dump = Resource.dump cert and summary = [ Resource.summary cert ] in
            if static then emit ~dump ~summary budget_diags
            else
              with_simulable "budget" (fun () ->
                  check_simulable compiled;
                  (* Single-run readback discipline (see Resource.check_observed):
                     the telemetry window must hold exactly this run, or the
                     dispatch/trajectory equalities would see foreign counts. *)
                  Telemetry.reset ();
                  Telemetry.enable ();
                  let observed_diags =
                    Fun.protect ~finally:Telemetry.disable (fun () ->
                        ignore
                          (Executor.simulate_detailed
                             ~config:
                               { Executor.model = Noise.default; trajectories;
                                 base_seed = seed }
                             ~domains ~batch compiled);
                        Resource.check_observed cert)
                  in
                  emit ~dump ~summary (budget_diags @ observed_diags)))
  in
  let seed = Arg.(value & opt int 2023 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let limit_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit-bytes" ] ~docv:"N"
          ~doc:"Admission budget on certified peak payload bytes (RES01 when exceeded).")
  in
  let limit_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "limit-ms" ] ~docv:"MS"
          ~doc:
            "Admission budget on certified worst-case modeled duration, in \
             milliseconds (RES01 when exceeded).")
  in
  let static_arg =
    Arg.(
      value & flag
      & info [ "static" ]
          ~doc:
            "Certify and check the budget only; skip the instrumented run and the \
             certificate/observation cross-check.")
  in
  let format_arg =
    Arg.(
      value
      & opt string "text"
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text (default) or sarif.")
  in
  Cmd.v
    (Cmd.info "budget"
       ~doc:
         "Certify a program's resource demand (peak bytes, modeled duration, pool \
          seats), enforce admission limits and cross-check the certificate against an \
          instrumented run")
    Term.(
      const run $ family_arg $ n_arg $ cx_fraction_arg $ strategy_arg $ trajectories_arg
      $ seed $ qasm_arg $ optimize_arg $ domains_arg $ batch_arg $ limit_bytes_arg
      $ limit_ms_arg $ static_arg $ format_arg $ output_file_arg)

(* ---- sanitize ---- *)

let sanitize_cmd =
  let module Sanitize = Waltz_sanitizer.Sanitize in
  let module Fuzz = Waltz_sanitizer.Fuzz in
  let module SReport = Waltz_sanitize_report.Report in
  let module Fixtures = Waltz_sanitize_report.Fixtures in
  let module Sarif = Waltz_verify.Sarif in
  let bug_of = function
    | "clean" -> Ok Fuzz.Clean
    | "unseated-join" -> Ok Fuzz.Unseated_join
    | "torn-claim" -> Ok Fuzz.Torn_claim
    | "early-read" -> Ok Fuzz.Early_read
    | other ->
      Error
        (Printf.sprintf "unknown bug %s (clean, unseated-join, torn-claim, early-read)"
           other)
  in
  let run n trajectories domains fixtures fuzz_runs fuzz_seed fuzz_bug format output
      stats =
    match (format, bug_of fuzz_bug) with
    | fmt, _ when fmt <> "text" && fmt <> "json" && fmt <> "sarif" ->
      Printf.eprintf "unknown format %s (text, json, sarif)\n" fmt;
      1
    | _, Error e ->
      prerr_endline e;
      1
    | format, Ok bug ->
      let rc = ref 0 in
      let buf = Buffer.create 4096 in
      if fixtures then begin
        Buffer.add_string buf "seeded-race fixture suite:\n";
        List.iter
          (fun (fx : Fixtures.fixture) ->
            match Fixtures.check fx with
            | Ok () ->
              Buffer.add_string buf
                (Printf.sprintf "  %-24s flagged %s as expected\n" fx.Fixtures.name
                   fx.Fixtures.expected_rule)
            | Error msg ->
              rc := 1;
              Buffer.add_string buf
                (Printf.sprintf "  %-24s FAILED: %s\n" fx.Fixtures.name msg))
          Fixtures.all
      end
      else if fuzz_runs = 0 then begin
        (* Clean grid: simulate every benchmark x strategy cell with the
           sanitizer watching the runtime's shared state; any finding on
           production code is a failure. *)
        let grid_rc =
          with_families "sanitize" n @@ fun circuits ->
          with_simulable "sanitize" @@ fun () ->
          with_telemetry ~stats ~trace:None (fun () ->
              Sanitize.reset ();
              Sanitize.enable ();
              List.iter
                (fun (_, circuit) ->
                  List.iter
                    (fun (strategy : Strategy.t) ->
                      let compiled = Compile.compile strategy circuit in
                      if trajectories > 0 then begin
                        check_simulable compiled;
                        ignore
                          (Executor.simulate
                             ~config:
                               { Executor.model = Noise.default; trajectories;
                                 base_seed = 2023 }
                             ?domains compiled)
                      end)
                    Strategy.fig7_set)
                circuits;
              Sanitize.disable ();
              SReport.flush_telemetry ();
              let report = SReport.to_report ~summary:true () in
              (match format with
              | "json" -> Buffer.add_string buf (Sarif.to_json report ^ "\n")
              | "sarif" ->
                Buffer.add_string buf
                  (Sarif.to_sarif
                     ~families:[ "RACE"; "LOCK"; "OWN" ]
                     ~driver:("waltz_sanitize", "doc/SANITIZER.md")
                     report
                  ^ "\n")
              | _ ->
                Buffer.add_string buf
                  (Format.asprintf "%a@." Waltz_verify.Diagnostic.pp_report report));
              if report.Waltz_verify.Diagnostic.diagnostics = []
                 || Waltz_verify.Diagnostic.is_clean report
              then 0
              else 1)
        in
        if grid_rc <> 0 then rc := 1
      end
      else begin
        (* Schedule fuzzing of the pool's seat protocol. On the faithful
           protocol any failure is a bug; with an injected bug the fuzzer
           must find at least one failing interleaving. *)
        let failures =
          Fuzz.fuzz ~bug ~workers:3 ~items:8 ~seed:fuzz_seed ~runs:fuzz_runs ()
        in
        Buffer.add_string buf
          (Printf.sprintf "schedule fuzzer: %d runs of the %s protocol, %d failures\n"
             fuzz_runs fuzz_bug (List.length failures));
        List.iter
          (fun (seed, (o : Fuzz.outcome)) ->
            match o.Fuzz.failure with
            | Some f ->
              Buffer.add_string buf
                (Printf.sprintf "  seed %d: %s at step %d (shrunk trace: %s)\n" seed
                   f.Fuzz.invariant f.Fuzz.at_step
                   (String.concat "," (List.map string_of_int o.Fuzz.trace)))
            | None -> ())
          failures;
        let found = failures <> [] in
        if (bug = Fuzz.Clean && found) || (bug <> Fuzz.Clean && not found) then begin
          rc := 1;
          Buffer.add_string buf
            (if bug = Fuzz.Clean then "FAILED: the faithful protocol violated an invariant\n"
             else "FAILED: the fuzzer missed the injected bug\n")
        end
      end;
      write_output output (Buffer.contents buf);
      !rc
  in
  let fixtures_arg =
    Arg.(
      value & flag
      & info [ "fixtures" ]
          ~doc:
            "Run the seeded-race fixture suite instead of the clean grid: each \
             intentionally broken harness must be flagged with exactly its expected \
             rule id.")
  in
  let fuzz_runs_arg =
    Arg.(
      value & opt int 0
      & info [ "fuzz" ] ~docv:"RUNS"
          ~doc:"Fuzz the pool's seat protocol for RUNS seeded interleavings.")
  in
  let fuzz_seed_arg =
    Arg.(value & opt int 2023 & info [ "fuzz-seed" ] ~docv:"SEED" ~doc:"Fuzzer base seed.")
  in
  let fuzz_bug_arg =
    Arg.(
      value & opt string "clean"
      & info [ "fuzz-bug" ] ~docv:"BUG"
          ~doc:
            "Protocol variant to fuzz: clean (default; must never fail), \
             unseated-join, torn-claim or early-read (must fail).")
  in
  let format_arg =
    Arg.(
      value & opt string "text"
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format for the clean grid: text (default), json, or sarif.")
  in
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:
         "Run the concurrency sanitizer: a clean benchmark x strategy grid under the \
          race/deadlock/ownership detectors, the seeded-race fixture suite \
          (--fixtures), or the pool schedule fuzzer (--fuzz)")
    Term.(
      const run $ n_arg $ trajectories_arg $ domains_arg $ fixtures_arg $ fuzz_runs_arg
      $ fuzz_seed_arg $ fuzz_bug_arg $ format_arg $ output_file_arg $ stats_arg)

(* ---- report ---- *)

let report_cmd =
  (* With --baseline the subcommand is a regression gate instead of a grid:
     compare a current BENCH_micro.json-shaped record against the committed
     baseline and exit nonzero when a tracked metric moved past threshold
     (`make regress-check` / `make bench-smoke`). *)
  let regress baseline current threshold =
    let thresholds =
      match threshold with
      | Some pct -> { Regress.default_thresholds with Regress.ns_pct = pct }
      | None -> Regress.default_thresholds
    in
    match Regress.compare_files ~thresholds ~baseline ~current () with
    | Error e ->
      prerr_endline ("report --baseline: " ^ e);
      2
    | Ok [] ->
      Printf.printf "no regressions: %s vs baseline %s (ns/run +%.0f%% allowed)\n" current
        baseline thresholds.Regress.ns_pct;
      0
    | Ok findings ->
      List.iter (fun f -> print_endline (Regress.pp_finding f)) findings;
      Printf.printf "%d regression%s vs baseline %s\n" (List.length findings)
        (if List.length findings = 1 then "" else "s")
        baseline;
      1
  in
  let grid n trajectories domains trace =
    with_families "report" n @@ fun circuits ->
    with_simulable "report" @@ fun () ->
    Telemetry.reset ();
    Telemetry.enable ();
    let strategies = Strategy.fig7_set in
    Printf.printf
      "telemetry report: benchmark x strategy grid (n = %d, %d trajectories per cell)\n" n
      trajectories;
    Printf.printf "%-10s %-18s %9s %9s %9s %9s %9s\n" "circuit" "strategy" "compile"
      "route" "choreo" "plan" "sim";
    Printf.printf "%-10s %-18s %9s %9s %9s %9s %9s\n" "" "" "(ms)" "(ms)" "(ms)" "(ms)"
      "(ms)";
    let cells () =
      List.iter
        (fun (family, circuit) ->
          List.iter
            (fun (strategy : Strategy.t) ->
              (* Per-cell span totals come from the cell's time window over
                 the rings, so one enabled window serves both the table and
                 an optional whole-grid [--trace]. *)
              let (), agg =
                Telemetry.Span.aggregate_during (fun () ->
                    let compiled = Compile.compile strategy circuit in
                    if trajectories > 0 then begin
                      check_simulable compiled;
                      ignore
                        (Executor.simulate
                           ~config:
                             { Executor.model = Noise.default; trajectories; base_seed = 2023 }
                           ?domains compiled)
                    end)
              in
              let total name =
                match
                  List.find_opt (fun a -> a.Telemetry.Span.agg_name = name) agg
                with
                | Some a -> a.Telemetry.Span.total_us /. 1000.
                | None -> 0.
              in
              Printf.printf "%-10s %-18s %9.2f %9.2f %9.2f %9.2f %9.2f\n"
                (Waltz_benchmarks.Bench_circuits.family_name family)
                strategy.Strategy.name (total "compile") (total "compile/route")
                (total "compile/choreograph") (total "executor/plan")
                (total "executor/simulate"))
            strategies)
        circuits
    in
    let cells = try Ok (cells ()) with Telemetry.Span.Overwritten lost -> Error lost in
    Telemetry.disable ();
    match cells with
    | Error lost ->
      Printf.eprintf
        "report: the flight-recorder rings overwrote %d events of one cell (capacity %d \
         per domain); its span totals would be short\n"
        lost (Recorder.capacity ());
      1
    | Ok () ->
      Printf.printf "flight-recorder events dropped: %d (ring capacity %d per domain)\n"
        (Recorder.dropped ()) (Recorder.capacity ());
      (match trace with
      | Some path ->
        Telemetry.Trace.write path;
        Printf.printf "wrote trace %s\n" path
      | None -> ());
      0
  in
  let run n trajectories domains trace baseline current threshold =
    match baseline with
    | Some baseline -> regress baseline current threshold
    | None -> grid n trajectories domains trace
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Regression mode: compare $(b,--current) against this committed bench \
             record (ns/run, cache hit-rates, mask-divergence rate) and exit nonzero \
             on regression. Skips the grid.")
  in
  let current_arg =
    Arg.(
      value
      & opt string "BENCH_micro.json"
      & info [ "current" ] ~docv:"FILE"
          ~doc:"Bench record to judge in regression mode (default: BENCH_micro.json).")
  in
  let threshold_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:"Allowed ns/run increase in percent (default 25).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Compile (and simulate) a benchmark x strategy grid and print a telemetry \
          phase-time / cache-hit table; with --baseline, gate on bench regressions")
    Term.(
      const run $ n_arg $ trajectories_arg $ domains_arg $ trace_arg $ baseline_arg
      $ current_arg $ threshold_arg)

(* ---- check ---- *)

(* One validator front end for the artifacts the CLI writes, chosen from
   the content: a JSON object with [traceEvents] is a Chrome trace
   (--trace), one with [runs] is SARIF (verify/budget/sanitize --format
   sarif). Anything else is rejected as JSON, with the parser's error for
   text that does not parse (a truncated trace, say). *)
let check_cmd =
  let run file =
    let text = read_file file in
    let kind, verdict =
      match Waltz_telemetry.Json.parse text with
      | Ok doc when Waltz_telemetry.Json.member "traceEvents" doc <> None ->
        ( "trace",
          Result.map
            (fun (events, tracks) ->
              Printf.sprintf "%d span events, %d tracks" events tracks)
            (Telemetry.Trace.validate text) )
      | Ok doc when Waltz_telemetry.Json.member "runs" doc <> None ->
        ( "SARIF 2.1.0",
          Result.map (Printf.sprintf "%d results") (Waltz_verify.Sarif.validate text) )
      | Ok _ -> ("JSON", Error "neither a trace (traceEvents) nor SARIF (runs)")
      | Error msg -> ("JSON", Error (msg ^ "; check accepts a trace or a SARIF report"))
    in
    match verdict with
    | Ok summary ->
      Printf.printf "%s: valid %s (%s)\n" file kind summary;
      0
    | Error msg ->
      Printf.eprintf "%s: INVALID %s: %s\n" file kind msg;
      1
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"A Chrome trace (--trace) or a SARIF report (--format sarif).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate a trace or SARIF file written by this tool; the kind is detected \
          from the content")
    Term.(const run $ file)

(* ---- profile ---- *)

(* The profiled subcommand runs in-process (the sampler reads live span
   stacks), so `profile -- simulate …` re-enters the command group through
   this forward reference, which is set once the group below is built. *)
let dispatch_ref : (string array -> int) ref =
  ref (fun _ ->
      prerr_endline "profile: dispatcher not initialized";
      2)

let profile_cmd =
  let run hz out args =
    match args with
    | [] ->
      prerr_endline
        "profile: missing subcommand (usage: waltz_cli profile [--hz HZ] [-o FILE] -- \
         <subcommand> [args])";
      2
    | "profile" :: _ ->
      prerr_endline "profile: refusing to profile itself";
      2
    | args ->
      (* Span stacks live in the flight-recorder rings, which record only
         while armed; enable telemetry for the child's duration. *)
      Telemetry.reset ();
      Telemetry.enable ();
      let sampler = Profiler.start ?hz () in
      let rc = !dispatch_ref (Array.of_list ("waltz_cli" :: args)) in
      let folded = Profiler.stop sampler in
      Telemetry.disable ();
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 folded in
      (match out with
      | Some path ->
        Profiler.write path folded;
        Printf.printf "wrote %d folded stacks (%d samples) to %s\n" (List.length folded)
          total path
      | None -> List.iter print_endline (Profiler.to_lines folded));
      rc
  in
  let hz =
    Arg.(
      value
      & opt (some int) None
      & info [ "hz" ] ~docv:"HZ"
          ~doc:"Sampling rate (default: \\$(b,WALTZ_PROFILE_HZ) or 97).")
  in
  let args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SUBCOMMAND"
          ~doc:"Subcommand to profile, after --, e.g. -- simulate -c qram -n 7.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run another waltz_cli subcommand under the sampling profiler and print \
          flamegraph-compatible folded stacks (frame;frame count), one leading \
          frame per domain")
    Term.(const run $ hz $ output_file_arg $ args)

(* ---- rb ---- *)

let rb_cmd =
  let run samples clifford_f gate_f seed =
    let open Waltz_sim in
    let rng = Waltz_linalg.Rng.make ~seed in
    let depths = [ 1; 5; 10; 20; 40; 70; 100 ] in
    let p_c = Rb.error_prob_of_fidelity clifford_f in
    let p_g = Rb.error_prob_of_fidelity gate_f in
    let hh = Waltz_linalg.Mat.kron Waltz_qudit.Gates.h Waltz_qudit.Gates.h in
    let reference = Rb.run rng ~depths ~samples ~error_per_clifford:p_c () in
    let interleaved =
      Rb.run rng ~depths ~samples ~error_per_clifford:p_c ~interleave:(hh, p_g) ()
    in
    Printf.printf "F_RB = %.4f, F_IRB = %.4f, extracted F_HH = %.4f\n"
      reference.Rb.fidelity interleaved.Rb.fidelity
      (Rb.interleaved_gate_fidelity ~reference ~interleaved);
    0
  in
  let samples =
    Arg.(value & opt int 40 & info [ "samples" ] ~docv:"K" ~doc:"Sequences per depth.")
  in
  let clifford_f =
    Arg.(
      value & opt float 0.958 & info [ "clifford-fidelity" ] ~doc:"Injected Clifford F.")
  in
  let gate_f =
    Arg.(value & opt float 0.96 & info [ "gate-fidelity" ] ~doc:"Injected H(x)H F.")
  in
  let seed = Arg.(value & opt int 2023 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "rb" ~doc:"Randomized benchmarking on a simulated ququart (Fig. 2)")
    Term.(const run $ samples $ clifford_f $ gate_f $ seed)

(* ---- pulse ---- *)

let pulse_cmd =
  let run target duration segments iters =
    let open Waltz_control in
    let pick = function
      | "x" -> Ok (Synthesis.x_target, [| 3 |], [| 2 |])
      | "h" -> Ok (Synthesis.h_target, [| 3 |], [| 2 |])
      | "hh" -> Ok (Synthesis.hh_target, [| 5 |], [| 4 |])
      | "cx-internal" -> Ok (Synthesis.cx_internal_target, [| 5 |], [| 4 |])
      | "cz2" -> Ok (Waltz_qudit.Gates.cz, [| 3; 3 |], [| 2; 2 |])
      | "cx2" -> Ok (Waltz_qudit.Gates.cx, [| 3; 3 |], [| 2; 2 |])
      | other ->
        Error (Printf.sprintf "unknown target %s (x, h, hh, cx-internal, cz2, cx2)" other)
    in
    match pick target with
    | Error e ->
      prerr_endline e;
      1
    | Ok (target_u, levels, logical_levels) ->
      let spec = Transmon.paper_spec ~n:(Array.length levels) ~levels in
      let report, _ =
        Synthesis.synthesize ~seed:11 ~restarts:1 ~iters ~spec ~target:target_u
          ~logical_levels ~duration_ns:duration ~segments ()
      in
      Printf.printf "T = %.1f ns: F = %.4f, leakage = %.4f (%d iterations)\n"
        report.Synthesis.duration_ns report.Synthesis.fidelity report.Synthesis.leakage
        report.Synthesis.iterations;
      0
  in
  let target =
    Arg.(
      value & opt string "hh"
      & info [ "target" ] ~docv:"GATE" ~doc:"x, h, hh, cx-internal, cz2 or cx2.")
  in
  let duration =
    Arg.(value & opt float 90. & info [ "duration" ] ~docv:"NS" ~doc:"Gate time (ns).")
  in
  let segments =
    Arg.(
      value & opt int 360
      & info [ "segments" ] ~docv:"S" ~doc:"Pulse segments (use dt <= 0.25 ns).")
  in
  let iters =
    Arg.(value & opt int 600 & info [ "iters" ] ~docv:"I" ~doc:"GRAPE iterations.")
  in
  Cmd.v
    (Cmd.info "pulse" ~doc:"Synthesize a ququart pulse with optimal control")
    Term.(const run $ target $ duration $ segments $ iters)

let () =
  let doc = "The Quantum Waltz: three-qubit gates on four-level architectures" in
  let info = Cmd.info "waltz_cli" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ compile_cmd; estimate_cmd; simulate_cmd; sweep_cmd; breakdown_cmd; verify_cmd;
        budget_cmd; sanitize_cmd; report_cmd; check_cmd; profile_cmd; rb_cmd; pulse_cmd ]
  in
  dispatch_ref := (fun argv -> Cmd.eval' ~argv group);
  exit (Cmd.eval' group)
