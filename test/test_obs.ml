(* The observability plane: quantile-sketch accuracy and merge laws, the
   flight-recorder ring (wraparound, per-domain isolation, dump-on-raise),
   profiler folded-stack well-formedness, gauge and histogram readback
   through the --stats report, and the bench regression gate. *)
open Test_util
module Telemetry = Waltz_telemetry.Telemetry
module Sketch = Waltz_telemetry.Sketch
module Recorder = Waltz_telemetry.Recorder
module Profiler = Waltz_telemetry.Profiler
module Regress = Waltz_telemetry.Regress

(* Cases arm/enable process-wide flags; every case restores the defaults so
   its successors (and the rest of the binary) see a quiet plane. *)
let with_recorder f =
  Recorder.reset ();
  Recorder.arm ();
  Fun.protect ~finally:(fun () ->
      Recorder.disarm ();
      Recorder.reset ())
    f

(* ---- sketch ---- *)

(* Deterministic pseudo-random positive values spanning several octaves. *)
let lcg_values ~seed n =
  let state = ref (seed land 0x3FFFFFFF) in
  let next () =
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    float_of_int !state /. float_of_int 0x3FFFFFFF
  in
  Array.init n (fun _ -> Float.exp2 (20. *. next () -. 4.))

let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  sorted.(rank - 1)

let sketch_rank_error () =
  List.iter
    (fun (seed, n) ->
      let values = lcg_values ~seed n in
      let s = Sketch.create () in
      Array.iter (Sketch.observe s) values;
      let sorted = Array.copy values in
      Array.sort compare sorted;
      check_int "count" n (Sketch.count s);
      close ~tol:1e-6 "sum"
        (Array.fold_left ( +. ) 0. values /. float_of_int n)
        (Sketch.sum s /. float_of_int n);
      close ~tol:1e-12 "min exact" sorted.(0) (Sketch.min_value s);
      close ~tol:1e-12 "max exact" sorted.(n - 1) (Sketch.max_value s);
      List.iter
        (fun q ->
          let est = Sketch.quantile s q in
          let exact = exact_quantile sorted q in
          let label = Printf.sprintf "q=%.2f seed=%d" q seed in
          check_bool (label ^ " within gamma above") true
            (est <= exact *. Sketch.gamma *. (1. +. 1e-9));
          check_bool (label ^ " within gamma below") true
            (est >= exact /. (Sketch.gamma *. (1. +. 1e-9))))
        [ 0.01; 0.25; 0.5; 0.9; 0.99; 1.0 ])
    [ (17, 500); (99, 1000); (12345, 2000) ]

let sketch_merge_laws () =
  let obs seed n =
    let s = Sketch.create () in
    Array.iter (Sketch.observe s) (lcg_values ~seed n);
    s
  in
  let a = obs 1 300 and b = obs 2 500 and c = obs 3 700 in
  let left = Sketch.merge (Sketch.merge a b) c in
  let right = Sketch.merge a (Sketch.merge b c) in
  check_int "assoc count" (Sketch.count left) (Sketch.count right);
  close ~tol:1e-9 "assoc sum" (Sketch.sum left) (Sketch.sum right);
  check_bool "assoc buckets" true
    (Sketch.nonempty_buckets left = Sketch.nonempty_buckets right);
  List.iter
    (fun q ->
      close ~tol:0. (Printf.sprintf "assoc q=%.2f" q) (Sketch.quantile left q)
        (Sketch.quantile right q))
    [ 0.5; 0.9; 0.99 ];
  (* Merge is lossless vs. observing the concatenation directly. *)
  let all = Sketch.create () in
  List.iter
    (fun (seed, n) -> Array.iter (Sketch.observe all) (lcg_values ~seed n))
    [ (1, 300); (2, 500); (3, 700) ];
  check_int "merge = concat count" (Sketch.count all) (Sketch.count left);
  check_bool "merge = concat buckets" true
    (Sketch.nonempty_buckets all = Sketch.nonempty_buckets left);
  (* Purity: merging did not disturb the inputs. *)
  check_int "a untouched" 300 (Sketch.count a);
  check_int "c untouched" 700 (Sketch.count c)

let sketch_zeros_and_empty () =
  let s = Sketch.create () in
  close ~tol:0. "empty quantile" 0. (Sketch.quantile s 0.5);
  Sketch.observe s 0.;
  Sketch.observe s (-3.);
  Sketch.observe s 8.;
  check_int "count includes zeros" 3 (Sketch.count s);
  close ~tol:1e-12 "min is negative" (-3.) (Sketch.min_value s);
  close ~tol:0. "p50 of {0,-3,8} is the zero bucket floor" (-3.)
    (Sketch.quantile s 0.5);
  check_bool "zero bucket listed" true
    (List.exists (fun (u, _) -> u = 0.) (Sketch.nonempty_buckets s))

(* ---- flight recorder ring ---- *)

let ring_wraparound () =
  with_recorder (fun () ->
      Recorder.set_capacity 32;
      for i = 0 to 99 do
        Recorder.record_count (Printf.sprintf "e%d" i) 1
      done;
      match Recorder.events () with
      | [ (_, evs) ] ->
        check_int "ring holds capacity" 32 (List.length evs);
        let first = List.hd evs and last = List.nth evs 31 in
        check_bool "oldest survivor is e68" true (first.Recorder.name = "e68");
        check_bool "newest is e99" true (last.Recorder.name = "e99");
        Recorder.set_capacity Recorder.default_capacity
      | tracks ->
        Recorder.set_capacity Recorder.default_capacity;
        Alcotest.failf "expected 1 track, got %d" (List.length tracks))

let ring_per_domain_isolation () =
  with_recorder (fun () ->
      Recorder.record_count "main-ev" 1;
      let worker =
        Domain.spawn (fun () ->
            for _ = 1 to 5 do
              Recorder.record_count "worker-ev" 1
            done;
            (Domain.self () :> int))
      in
      let worker_track = Domain.join worker in
      Recorder.record_count "main-ev" 1;
      let per_track = Recorder.events () in
      check_int "two tracks" 2 (List.length per_track);
      List.iter
        (fun (track, evs) ->
          let expect = if track = worker_track then "worker-ev" else "main-ev" in
          check_bool
            (Printf.sprintf "track %d holds only %s" track expect)
            true
            (List.for_all (fun e -> e.Recorder.name = expect) evs))
        per_track)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let dump_on_raise () =
  let dir = Filename.temp_file "waltz-obs" "" in
  Sys.remove dir;
  Recorder.set_dump_dir dir;
  Telemetry.reset ();
  Telemetry.enable ();
  let cleanup () =
    Telemetry.disable ();
    Recorder.set_dump_dir (Filename.get_temp_dir_name ())
  in
  Fun.protect ~finally:cleanup (fun () ->
      with_recorder (fun () ->
          let raised = ref false in
          (try
             Telemetry.Span.with_ ~name:"outer" (fun () ->
                 Recorder.with_crash_dump ~label:"test-fixture" (fun () ->
                     Telemetry.Span.with_ ~name:"inner" (fun () ->
                         failwith "boom")))
           with Failure _ -> raised := true);
          check_bool "exception propagated" true !raised;
          match Recorder.last_dump () with
          | None -> Alcotest.fail "no dump written on raise"
          | Some (trace_path, text_path) ->
            let trace = read_file trace_path in
            let text = read_file text_path in
            (* The dump runs inside with_crash_dump: "inner" already closed
               by its finalizer, "outer" still open — the crash frontier. *)
            check_bool "trace has inner span" true
              (contains ~needle:"\"inner\"" trace);
            check_bool "trace shows crash frontier" true
              (contains ~needle:"outer (unclosed)" trace);
            check_bool "text names the reason" true
              (contains ~needle:"crash:test-fixture" text);
            check_bool "text has begin event" true
              (contains ~needle:"begin  outer" text);
            (match Telemetry.Trace.validate trace with
            | Ok (spans, _) -> check_bool "dump is a valid trace" true (spans >= 2)
            | Error e -> Alcotest.failf "flight dump invalid: %s" e)))

(* ---- profiler folded stacks ---- *)

let folded_stack_wellformed () =
  (* open_stacks yields innermost-first; the folded key is root-first with
     the track frame leading. *)
  check_bool "main root" true
    (Profiler.folded_key ~track:0 ~stack:[ "leaf"; "mid"; "root" ]
    = "main;root;mid;leaf");
  check_bool "domain root" true
    (Profiler.folded_key ~track:3 ~stack:[] = "domain-3");
  let folded = [ ("main;a;b", 7); ("main;a", 2) ] in
  let lines = Profiler.to_lines folded in
  check_int "one line per key" 2 (List.length lines);
  List.iter2
    (fun line (key, n) ->
      check_bool ("line " ^ line) true (line = Printf.sprintf "%s %d" key n);
      (* flamegraph folded format: no spaces inside the key, count last. *)
      check_bool "no stray spaces" false (String.contains key ' ');
      check_bool "positive count" true (n > 0))
    lines folded

let profiler_samples_spans () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      let p = Profiler.start ~hz:500 () in
      Telemetry.Span.with_ ~name:"busy" (fun () ->
          let t0 = Unix.gettimeofday () in
          let acc = ref 0. in
          while Unix.gettimeofday () -. t0 < 0.05 do
            for i = 1 to 1000 do
              acc := !acc +. sqrt (float_of_int i)
            done
          done;
          ignore !acc);
      let folded = Profiler.stop p in
      check_bool "captured samples" true (folded <> []);
      List.iter
        (fun (key, n) ->
          check_bool "positive counts" true (n > 0);
          check_bool ("rooted key: " ^ key) true
            (contains ~needle:"main" key || contains ~needle:"domain-" key))
        folded;
      check_bool "saw the busy span" true
        (List.exists (fun (key, _) -> contains ~needle:"busy" key) folded))

(* ---- gauges and histograms in the --stats report ---- *)

(* The indented lines under a report heading such as "gauges:". *)
let report_section report heading =
  let rec after = function
    | [] -> []
    | line :: rest -> if line = heading then under rest else after rest
  and under = function
    | line :: rest when String.length line > 0 && line.[0] = ' ' -> line :: under rest
    | _ -> []
  in
  after (String.split_on_char '\n' report)

let gauge_and_histogram_readback () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    (fun () ->
      Telemetry.Metrics.set_gauge "unit.gauge" 1.5;
      Telemetry.Metrics.set_gauge "unit.gauge" 2.5;
      List.iter (Telemetry.Metrics.observe "unit.lat_us") [ 1.; 10.; 100. ];
      check_bool "gauge keeps the last write" true
        (Telemetry.Metrics.gauge "unit.gauge" = Some 2.5);
      check_bool "gauges lists it" true
        (List.assoc_opt "unit.gauge" (Telemetry.Metrics.gauges ()) = Some 2.5);
      (match Telemetry.Metrics.histogram "unit.lat_us" with
      | Some h ->
        check_int "histogram count" 3 h.Telemetry.Metrics.count;
        close ~tol:0. "histogram max" 100. h.Telemetry.Metrics.max
      | None -> Alcotest.fail "histogram missing");
      let report = Telemetry.Report.to_string () in
      check_bool "report lists the gauge under gauges:" true
        (List.exists (contains ~needle:"unit.gauge")
           (report_section report "gauges:"));
      check_bool "report lists the histogram under histograms:" true
        (List.exists (contains ~needle:"unit.lat_us")
           (report_section report "histograms:"));
      Telemetry.reset ();
      check_bool "reset clears the gauge" true (Telemetry.Metrics.gauge "unit.gauge" = None);
      check_bool "reset clears gauges" true (Telemetry.Metrics.gauges () = []);
      check_bool "reset clears the histogram" true
        (Telemetry.Metrics.histogram "unit.lat_us" = None);
      check_bool "report drops both" false
        (contains ~needle:"unit." (Telemetry.Report.to_string ())))

(* ---- regression gate ---- *)

let baseline_record =
  {|{"ns_per_run": {"fig9/trajectory-sim": 4000.0, "compile/full": 900.0},
     "telemetry": {"lift_gate_hit_rate": 0.8, "damping_cache_hit_rate": 0.9},
     "batch": {"mask_divergence_rate": 0.01}}|}

let regress_gate () =
  (match
     Regress.compare_strings ~baseline:baseline_record ~current:baseline_record ()
   with
  | Ok [] -> ()
  | Ok fs -> Alcotest.failf "identical records flagged %d findings" (List.length fs)
  | Error e -> Alcotest.failf "parse: %s" e);
  let regressed =
    {|{"ns_per_run":
        {"fig9/trajectory-sim": 9000.0, "compile/full": 910.0, "brand/new": 1.0},
       "telemetry": {"lift_gate_hit_rate": 0.4, "damping_cache_hit_rate": 0.89},
       "batch": {"mask_divergence_rate": 0.2}}|}
  in
  match Regress.compare_strings ~baseline:baseline_record ~current:regressed () with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok findings ->
    let metrics = List.map (fun f -> f.Regress.metric) findings in
    let flagged m = List.exists (contains ~needle:m) metrics in
    check_int "three regressions" 3 (List.length findings);
    check_bool "ns/run rise flagged" true (flagged "fig9/trajectory-sim");
    check_bool "hit-rate drop flagged" true (flagged "lift_gate_hit_rate");
    check_bool "divergence rise flagged" true (flagged "mask_divergence_rate");
    check_bool "within-threshold drift ignored" false (flagged "compile/full");
    check_bool "new benchmark ignored" false (flagged "brand/new");
    List.iter
      (fun f ->
        check_bool "pp mentions baseline" true
          (contains ~needle:"baseline" (Regress.pp_finding f)))
      findings

let suite =
  [ case "sketch: rank error within gamma" sketch_rank_error;
    case "sketch: merge associative and lossless" sketch_merge_laws;
    case "sketch: zeros and empty" sketch_zeros_and_empty;
    case "recorder: ring wraparound drops oldest" ring_wraparound;
    case "recorder: per-domain isolation" ring_per_domain_isolation;
    case "recorder: dump on raise shows crash frontier" dump_on_raise;
    case "profiler: folded keys well-formed" folded_stack_wellformed;
    case "profiler: samples live spans" profiler_samples_spans;
    case "report: gauges and histograms read back, print and reset"
      gauge_and_histogram_readback;
    case "regress: gate trips on synthetic regression" regress_gate ]
