(* The waltz_telemetry observability layer: disabled-mode transparency,
   bit-identical simulation with the flag on, span nesting, metrics and the
   Chrome trace exporter/validator. *)
open Waltz_circuit
open Waltz_noise
open Waltz_core
open Test_util
module Telemetry = Waltz_telemetry.Telemetry
module Recorder = Waltz_telemetry.Recorder

let toffoli = Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ]
let cuccaro5 = Waltz_benchmarks.Bench_circuits.by_total_qubits Cuccaro 5

(* Every case leaves the process-wide flag off for its successors. *)
let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:(fun () -> Telemetry.disable ()) f

let disabled_no_op () =
  Telemetry.disable ();
  Telemetry.reset ();
  check_bool "flag off" false (Telemetry.active ());
  let r = Telemetry.Span.with_ ~name:"ghost" (fun () -> 41 + 1) in
  check_int "with_ is transparent" 42 r;
  Telemetry.Metrics.incr "ghost.counter";
  Telemetry.Metrics.observe "ghost.hist" 3.14;
  check_int "no spans recorded" 0 (List.length (Telemetry.Span.all ()));
  check_int "no counters recorded" 0 (List.length (Telemetry.Metrics.counters ()));
  check_int "no histograms recorded" 0 (List.length (Telemetry.Metrics.histograms ()));
  check_int "counter reads 0" 0 (Telemetry.Metrics.counter "ghost.counter")

let simulate ?batch ~domains circuit =
  let compiled = Compile.compile Strategy.full_ququart circuit in
  Executor.simulate_detailed
    ~config:{ Executor.model = Noise.default; trajectories = 6; base_seed = 11 }
    ~domains ?batch compiled

(* The acceptance bar: telemetry on vs off is bit-identical, sequentially and
   under a multi-domain fan-out. *)
let identical_on_off ~domains () =
  Telemetry.disable ();
  let off = simulate ~domains cuccaro5 in
  let on = with_telemetry (fun () -> simulate ~domains cuccaro5) in
  close ~tol:0. "mean_fidelity" off.Executor.summary.Executor.mean_fidelity
    on.Executor.summary.Executor.mean_fidelity;
  close ~tol:0. "sem" off.Executor.summary.Executor.sem on.Executor.summary.Executor.sem;
  close ~tol:0. "mean_leakage" off.Executor.mean_leakage on.Executor.mean_leakage;
  close ~tol:0. "mean_error_draws" off.Executor.mean_error_draws
    on.Executor.mean_error_draws

(* These observe compile- and plan-time work, which the program cache
   elides on a hit (the same program object comes back, with its kernel
   memo) — force fresh compiles. *)
let without_program_cache f =
  Compile.set_program_cache false;
  Fun.protect ~finally:(fun () -> Compile.set_program_cache true) f

let span_nesting () =
  let spans =
    without_program_cache (fun () ->
        with_telemetry (fun () ->
            ignore (Compile.compile Strategy.mixed_radix_ccz cuccaro5);
            Telemetry.Span.all ()))
  in
  let find name = List.filter (fun s -> s.Telemetry.Span.name = name) spans in
  check_bool "compile span present" true (find "compile" <> []);
  List.iter
    (fun phase ->
      check_bool (phase ^ " span present") true (find phase <> []))
    [ "compile/decompose"; "compile/map"; "compile/route+choreograph";
      "compile/schedule" ];
  let root = List.hd (find "compile") in
  check_int "compile is a root span" 0 root.Telemetry.Span.depth;
  check_bool "compile carries the strategy arg" true
    (List.assoc_opt "strategy" root.Telemetry.Span.args = Some "mr-ccz");
  let root_end = root.Telemetry.Span.start_us +. root.Telemetry.Span.dur_us in
  List.iter
    (fun (s : Telemetry.Span.t) ->
      if s.Telemetry.Span.name <> "compile" then begin
        check_bool (s.Telemetry.Span.name ^ " nested under a parent") true
          (s.Telemetry.Span.depth > 0 && s.Telemetry.Span.parent <> None);
        check_bool (s.Telemetry.Span.name ^ " contained in compile") true
          (s.Telemetry.Span.start_us >= root.Telemetry.Span.start_us
          && s.Telemetry.Span.start_us +. s.Telemetry.Span.dur_us
             <= root_end +. 1e-6)
      end)
    spans;
  (* Direct phases name "compile" as their innermost enclosing span. *)
  List.iter
    (fun phase ->
      List.iter
        (fun (s : Telemetry.Span.t) ->
          check_bool (phase ^ " parent is compile") true
            (s.Telemetry.Span.parent = Some "compile"))
        (find phase))
    [ "compile/decompose"; "compile/map"; "compile/route+choreograph" ]

let metrics_basics () =
  with_telemetry (fun () ->
      Telemetry.Metrics.incr "a";
      Telemetry.Metrics.incr ~by:4 "a";
      Telemetry.Metrics.incr "b";
      check_int "counter accumulates" 5 (Telemetry.Metrics.counter "a");
      check_int "counters are separate" 1 (Telemetry.Metrics.counter "b");
      check_bool "counters sorted by name" true
        (List.map fst (Telemetry.Metrics.counters ()) = [ "a"; "b" ]);
      List.iter (Telemetry.Metrics.observe "h") [ 1.0; 2.0; 200.0 ];
      (match Telemetry.Metrics.histogram "h" with
      | None -> Alcotest.fail "histogram missing"
      | Some h ->
        check_int "histogram count" 3 h.Telemetry.Metrics.count;
        close "histogram sum" 203.0 h.Telemetry.Metrics.sum;
        close "histogram min" 1.0 h.Telemetry.Metrics.min;
        close "histogram max" 200.0 h.Telemetry.Metrics.max);
      Telemetry.Metrics.incr ~by:3 "c.hit";
      Telemetry.Metrics.incr "c.miss";
      close "hit rate" 0.75 (Telemetry.Metrics.hit_rate ~hit:"c.hit" ~miss:"c.miss");
      close "hit rate of nothing" 0.
        (Telemetry.Metrics.hit_rate ~hit:"no.hit" ~miss:"no.miss"))

let executor_counters () =
  without_program_cache @@ fun () ->
  (* Default (batched) engine: 6 trajectories at the default width fit one
     lockstep block — per-trajectory counters still count trajectories, and
     durations land in the block histogram. *)
  with_telemetry (fun () ->
      ignore (simulate ~domains:1 toffoli);
      check_int "trajectory count" 6 (Telemetry.Metrics.counter "executor.trajectories");
      check_bool "kernel memo metered" true
        (Telemetry.Metrics.counter "executor.kernel_memo.hit"
         + Telemetry.Metrics.counter "executor.kernel_memo.miss"
         > 0);
      check_int "one lockstep block" 1 (Telemetry.Metrics.counter "executor.batch.blocks");
      check_bool "lane windows counted" true
        (Telemetry.Metrics.counter "executor.batch.lane_windows" > 0);
      match Telemetry.Metrics.histogram "executor.block_us" with
      | None -> Alcotest.fail "block duration histogram missing"
      | Some h -> check_int "one duration sample per block" 1 h.Telemetry.Metrics.count);
  (* batch=1 runs one-lane blocks: one block and one block-duration sample
     per trajectory. *)
  with_telemetry (fun () ->
      ignore (simulate ~batch:1 ~domains:1 toffoli);
      check_int "trajectory count (batch=1)" 6
        (Telemetry.Metrics.counter "executor.trajectories");
      check_int "one block per trajectory" 6
        (Telemetry.Metrics.counter "executor.batch.blocks");
      match Telemetry.Metrics.histogram "executor.block_us" with
      | None -> Alcotest.fail "block duration histogram missing (batch=1)"
      | Some h -> check_int "one duration sample per one-lane block" 6 h.Telemetry.Metrics.count)

let trace_valid ~domains () =
  let json =
    with_telemetry (fun () ->
        ignore (simulate ~domains toffoli);
        Telemetry.Trace.to_json ())
  in
  match Telemetry.Trace.validate json with
  | Error msg -> Alcotest.failf "trace rejected: %s" msg
  | Ok (events, tracks) ->
    check_bool "at least one span event" true (events > 0);
    check_bool "at least one track" true (tracks >= 1)

let trace_invalid () =
  let reject label s =
    match Telemetry.Trace.validate s with
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  reject "garbage" "not json at all";
  reject "no traceEvents" "{}";
  reject "traceEvents not an array" {|{"traceEvents": 3}|};
  reject "event missing fields" {|{"traceEvents": [{"ph": "X", "name": "x"}]}|};
  reject "negative duration"
    {|{"traceEvents": [{"ph": "X", "name": "x", "ts": 1.0, "dur": -2.0, "pid": 1, "tid": 0}]}|};
  reject "partial overlap"
    {|{"traceEvents": [
        {"ph": "X", "name": "a", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 0},
        {"ph": "X", "name": "b", "ts": 5.0, "dur": 10.0, "pid": 1, "tid": 0}]}|};
  reject "non-monotone ts"
    {|{"traceEvents": [
        {"ph": "X", "name": "a", "ts": 9.0, "dur": 1.0, "pid": 1, "tid": 0},
        {"ph": "X", "name": "b", "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 0}]}|}

let reset_clears () =
  with_telemetry (fun () ->
      ignore (Telemetry.Span.with_ ~name:"s" (fun () -> ()));
      Telemetry.Metrics.incr "c";
      Telemetry.Metrics.observe "h" 1.0;
      Telemetry.reset ();
      check_bool "still enabled after reset" true (Telemetry.active ());
      check_int "spans cleared" 0 (List.length (Telemetry.Span.all ()));
      check_int "counters cleared" 0 (List.length (Telemetry.Metrics.counters ()));
      check_int "histograms cleared" 0 (List.length (Telemetry.Metrics.histograms ())))

(* Spans live only in the per-domain rings, so telemetry memory has a bound:
   one ring per recording domain (five one-word slots per event) plus
   slack, however many spans run or resets happen. *)
let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

let ring_bytes () = Recorder.capacity () * 5 * (Sys.word_size / 8)

let check_growth label before =
  let grown = live_bytes () - before in
  check_bool
    (Printf.sprintf "%s grew the live heap by %d bytes (bound %d)" label grown
       (ring_bytes () + 1_000_000))
    true
    (grown < ring_bytes () + 1_000_000)

let bounded_spans () =
  with_telemetry (fun () ->
      let before = live_bytes () in
      for _ = 1 to 1_000_000 do
        Telemetry.Span.with_ ~name:"tick" ignore
      done;
      check_growth "10^6 spans" before)

let bounded_resets () =
  with_telemetry (fun () ->
      List.iter
        (fun (label, reset) ->
          let before = live_bytes () in
          for _ = 1 to 1000 do
            reset ();
            Telemetry.Span.with_ ~name:"tick" ignore
          done;
          check_growth (Printf.sprintf "1000 x (%s; one span)" label) before)
        [ ("Telemetry.reset", Telemetry.reset); ("Recorder.reset", Recorder.reset) ])

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A ring small enough to wrap inside one span: the outer Begin is
   overwritten, yet the child still reports the depth it was opened at and
   the report says how many events were lost. *)
let wraparound_keeps_depth () =
  with_telemetry (fun () ->
      Recorder.set_capacity 16;
      Fun.protect
        ~finally:(fun () -> Recorder.set_capacity Recorder.default_capacity)
        (fun () ->
          Telemetry.Span.with_ ~name:"outer" (fun () ->
              for _ = 1 to 40 do
                Telemetry.Metrics.incr "filler"
              done;
              Telemetry.Span.with_ ~name:"child" ignore);
          let spans = Telemetry.Span.all () in
          check_bool "outer's Begin was overwritten" false
            (List.exists (fun s -> s.Telemetry.Span.name = "outer") spans);
          (match List.find_opt (fun s -> s.Telemetry.Span.name = "child") spans with
          | None -> Alcotest.fail "child span lost"
          | Some s ->
            check_int "child keeps its true depth" 1 s.Telemetry.Span.depth;
            check_bool "its parent's Begin is gone" true (s.Telemetry.Span.parent = None));
          let dropped = Recorder.dropped () in
          check_bool "events were dropped" true (dropped > 0);
          check_bool "report states the dropped count" true
            (contains
               ~needle:(Printf.sprintf "events dropped: %d " dropped)
               (Telemetry.Report.to_string ()))))

(* A ring that wrapped before the window only lost older events: the
   window's one span is intact. A window that itself writes past the
   capacity must raise rather than return a short total. *)
let window_after_wraparound () =
  with_telemetry (fun () ->
      Recorder.set_capacity 16;
      Fun.protect
        ~finally:(fun () -> Recorder.set_capacity Recorder.default_capacity)
        (fun () ->
          for _ = 1 to 40 do
            Telemetry.Metrics.incr "filler"
          done;
          check_bool "ring wrapped before the window" true (Recorder.dropped () > 0);
          let (), agg =
            Telemetry.Span.aggregate_during (fun () -> Telemetry.Span.with_ ~name:"cell" ignore)
          in
          (match agg with
          | [ a ] ->
            check_bool "the window's span" true (a.Telemetry.Span.agg_name = "cell");
            check_int "counted once" 1 a.Telemetry.Span.count
          | _ -> Alcotest.failf "expected one aggregate, got %d" (List.length agg));
          match
            Telemetry.Span.aggregate_during (fun () ->
                Telemetry.Span.with_ ~name:"cell" (fun () ->
                    for _ = 1 to 40 do
                      Telemetry.Metrics.incr "filler"
                    done))
          with
          | _ -> Alcotest.fail "a window that wrapped its ring returned totals"
          | exception Telemetry.Span.Overwritten lost ->
            check_int "events of the window overwritten" (42 - 16) lost))

let suite =
  [ case "disabled mode records nothing and is transparent" disabled_no_op;
    case "simulate bit-identical with telemetry on (domains=1)"
      (identical_on_off ~domains:1);
    case "simulate bit-identical with telemetry on (domains=2)"
      (identical_on_off ~domains:2);
    case "compile spans are present and well-nested" span_nesting;
    case "counters, histograms and hit rates" metrics_basics;
    case "executor trajectory counters and duration histogram" executor_counters;
    case "chrome trace validates (domains=1)" (trace_valid ~domains:1);
    case "chrome trace validates (domains=2)" (trace_valid ~domains:2);
    case "trace validator rejects malformed traces" trace_invalid;
    case "reset clears state but keeps the flag" reset_clears;
    case "10^6 spans stay within one ring" bounded_spans;
    case "repeated resets stay within one ring" bounded_resets;
    case "wraparound keeps depth and reports drops" wraparound_keeps_depth;
    case "span window tolerates earlier wraparound" window_after_wraparound ]
