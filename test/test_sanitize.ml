(* The waltz_sanitizer concurrency layer: disabled-mode transparency, the
   vector-clock and lockset detector laws (driven deterministically with
   virtual thread ids), lock-order cycle detection, arena ownership, the
   seeded-race fixture suite, the schedule fuzzer and its shrinker, the
   diagnostic/telemetry bridge, and zero findings on clean production runs. *)
open Waltz_circuit
open Waltz_noise
open Waltz_core
open Test_util
module Sanitize = Waltz_sanitizer.Sanitize
module Fuzz = Waltz_sanitizer.Fuzz
module Fixtures = Waltz_sanitize_report.Fixtures
module SReport = Waltz_sanitize_report.Report

(* Every case leaves the process-wide flag off for its successors. *)
let with_sanitizer ?(mode = Sanitize.Both) f =
  Sanitize.reset ();
  Sanitize.set_mode mode;
  Sanitize.enable ();
  Fun.protect
    ~finally:(fun () ->
      Sanitize.disable ();
      Sanitize.reset ())
    f

let rules fs = List.map (fun f -> f.Sanitize.rule) fs
let vt = Sanitize.Tid.with_virtual

let disabled_no_op () =
  Sanitize.disable ();
  Sanitize.reset ();
  check_bool "flag off" false (Sanitize.enabled ());
  Sanitize.Shared.write "ghost";
  Sanitize.Shared.read_idx "ghost.arr" 3;
  Sanitize.Lock.acquire "ghost.m";
  Sanitize.Lock.release "ghost.m";
  let tok = Sanitize.Domains.fork () in
  Sanitize.Domains.spawned tok;
  Sanitize.Domains.join tok;
  Sanitize.Arena.touch (Sanitize.Arena.create "ghost.arena");
  check_int "no accesses recorded" 0 (Sanitize.stats ()).Sanitize.accesses;
  check_int "no findings recorded" 0 (List.length (Sanitize.findings ()));
  check_int "tid is -1 when disabled" (-1) (Sanitize.Tid.current ())

(* Vector-clock law: a mutex handoff (release then acquire) orders accesses,
   so lock-protected writes by two threads never race. *)
let hb_lock_handoff_ordered () =
  with_sanitizer ~mode:Sanitize.Happens_before (fun () ->
      let guarded () =
        Sanitize.Lock.acquire "m";
        Sanitize.Shared.write "x";
        Sanitize.Lock.release "m"
      in
      vt 0 guarded;
      vt 1 guarded;
      vt 0 guarded;
      check_int "ordered writes are clean" 0 (List.length (Sanitize.findings ())))

let hb_unordered_race () =
  with_sanitizer ~mode:Sanitize.Happens_before (fun () ->
      vt 0 (fun () -> Sanitize.Shared.write "x");
      vt 1 (fun () -> Sanitize.Shared.write "x");
      Alcotest.(check (list string))
        "write/write race" [ "RACE01" ]
        (rules (Sanitize.findings ())))

(* Fork/join law: a child starts after the parent's snapshot and the parent
   resumes after the child's last event, so the handoff is race-free in both
   modes (lockset recycling must not misfire on the ownership transfer). *)
let hb_fork_join_ordered () =
  with_sanitizer (fun () ->
      let tok = ref None in
      vt 0 (fun () ->
          Sanitize.Shared.write "x";
          tok := Some (Sanitize.Domains.fork ()));
      vt 1 (fun () ->
          Sanitize.Domains.spawned (Option.get !tok);
          Sanitize.Shared.write "x");
      vt 0 (fun () ->
          Sanitize.Domains.join (Option.get !tok);
          Sanitize.Shared.write "x");
      check_int "fork/join handoff is clean" 0 (List.length (Sanitize.findings ())))

(* Eraser law: a consistent lock keeps the candidate lockset non-empty; an
   unlocked third accessor empties it and fires RACE02 (and only RACE02 —
   lockset mode makes the weaker, schedule-independent claim). *)
let lockset_discipline () =
  with_sanitizer ~mode:Sanitize.Lockset (fun () ->
      let guarded () =
        Sanitize.Lock.acquire "m";
        Sanitize.Shared.write "x";
        Sanitize.Lock.release "m"
      in
      vt 0 guarded;
      vt 1 guarded;
      check_int "consistent lockset is clean" 0 (List.length (Sanitize.findings ()));
      vt 2 (fun () -> Sanitize.Shared.write "x");
      Alcotest.(check (list string))
        "empty lockset on a written site" [ "RACE02" ]
        (rules (Sanitize.findings ())))

let indexed_sites_independent () =
  with_sanitizer ~mode:Sanitize.Happens_before (fun () ->
      vt 0 (fun () -> Sanitize.Shared.write_idx "arr" 0);
      vt 1 (fun () -> Sanitize.Shared.write_idx "arr" 1);
      check_int "distinct elements do not race" 0 (List.length (Sanitize.findings ()));
      vt 1 (fun () -> Sanitize.Shared.write_idx "arr" 0);
      match Sanitize.findings () with
      | [ f ] ->
        Alcotest.(check string) "rule" "RACE01" f.Sanitize.rule;
        Alcotest.(check string) "site carries the element" "arr[0]" f.Sanitize.site
      | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

let lock_order_cycle () =
  with_sanitizer (fun () ->
      vt 0 (fun () ->
          Sanitize.Lock.acquire "a";
          Sanitize.Lock.acquire "b";
          Sanitize.Lock.release "b";
          Sanitize.Lock.release "a");
      vt 1 (fun () ->
          Sanitize.Lock.acquire "b";
          Sanitize.Lock.acquire "a";
          Sanitize.Lock.release "a";
          Sanitize.Lock.release "b");
      match List.filter (fun f -> f.Sanitize.rule = "LOCK01") (Sanitize.findings ()) with
      | [ f ] ->
        check_bool "acquisition-stack anchors present" true (f.Sanitize.anchors <> [])
      | fs -> Alcotest.failf "expected one LOCK01, got %d" (List.length fs))

let lock_misuse () =
  with_sanitizer (fun () ->
      vt 0 (fun () -> Sanitize.Lock.release "stray");
      Alcotest.(check (list string))
        "unheld release" [ "LOCK02" ]
        (rules (Sanitize.findings ())));
  with_sanitizer (fun () ->
      vt 0 (fun () ->
          Sanitize.Lock.acquire "m";
          Sanitize.Lock.acquire "m");
      Alcotest.(check (list string))
        "recursive acquire" [ "LOCK02" ]
        (rules (Sanitize.findings ())))

(* A section entered while the sanitizer was off, or before a reset, ends
   with release_seen without a finding and still orders its accesses
   before the next holder's; a recorded one pops the lock, so the next
   acquire is not recursive. Plain release keeps reporting an unheld
   lock. *)
let lock_release_seen () =
  Sanitize.disable ();
  Sanitize.reset ();
  with_sanitizer (fun () ->
      vt 0 (fun () ->
          Sanitize.Shared.read "x";
          Sanitize.Lock.release_seen "m");
      vt 1 (fun () ->
          Sanitize.Lock.acquire "m";
          Sanitize.Shared.write "x";
          Sanitize.Lock.release_seen "m";
          Sanitize.Lock.acquire "m";
          Sanitize.Lock.release_seen "m";
          Sanitize.Lock.acquire "m");
      Sanitize.reset ();
      vt 1 (fun () -> Sanitize.Lock.release_seen "m");
      check_int "no findings" 0 (List.length (Sanitize.findings ()));
      vt 2 (fun () -> Sanitize.Lock.release "m");
      Alcotest.(check (list string))
        "a plain unheld release still fires" [ "LOCK02" ]
        (rules (Sanitize.findings ())))

let arena_ownership () =
  with_sanitizer (fun () ->
      let tok = ref None in
      vt 0 (fun () ->
          tok := Some (Sanitize.Arena.create "arena");
          Sanitize.Arena.touch (Option.get !tok));
      check_int "owner touches are clean" 0 (List.length (Sanitize.findings ()));
      vt 1 (fun () -> Sanitize.Arena.touch (Option.get !tok));
      Alcotest.(check (list string))
        "foreign touch" [ "OWN01" ]
        (rules (Sanitize.findings ())))

(* Every seeded-race fixture must be flagged with exactly its expected rule. *)
let fixture_suite () =
  List.iter
    (fun (fx : Fixtures.fixture) ->
      match Fixtures.check fx with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" fx.Fixtures.name msg)
    Fixtures.all;
  check_int "five fixtures" 5 (List.length Fixtures.all)

let fuzzer_deterministic () =
  let run () = Fuzz.run ~bug:Fuzz.Torn_claim ~workers:3 ~items:8 ~seed:7 () in
  let a = run () and b = run () in
  check_bool "same seed, same outcome" true (a = b);
  let r = Fuzz.replay ~bug:Fuzz.Torn_claim ~workers:3 ~items:8 ~choices:a.Fuzz.trace () in
  check_bool "replay of the trace reproduces the verdict" true
    (r.Fuzz.failure = a.Fuzz.failure)

let fuzzer_clean_protocol () =
  List.iter
    (fun seed ->
      let o = Fuzz.run ~workers:3 ~items:8 ~seed () in
      match o.Fuzz.failure with
      | None -> ()
      | Some f -> Alcotest.failf "seed %d: %s at step %d" seed f.Fuzz.invariant f.Fuzz.at_step)
    [ 1; 2; 3; 2023; 99991 ];
  check_int "fuzz over the faithful protocol finds nothing" 0
    (List.length (Fuzz.fuzz ~workers:4 ~items:10 ~seed:2023 ~runs:30 ()))

let fuzzer_finds_injected_bugs () =
  List.iter
    (fun (name, bug) ->
      let failures = Fuzz.fuzz ~bug ~workers:3 ~items:8 ~seed:2023 ~runs:25 () in
      if failures = [] then Alcotest.failf "fuzzer missed injected bug %s" name;
      List.iter
        (fun (seed, (o : Fuzz.outcome)) ->
          if o.Fuzz.failure = None then
            Alcotest.failf "%s seed %d: shrunk replay no longer fails" name seed)
        failures)
    [ ("unseated-join", Fuzz.Unseated_join); ("torn-claim", Fuzz.Torn_claim);
      ("early-read", Fuzz.Early_read) ]

let shrinker_minimizes () =
  let bug = Fuzz.Torn_claim and workers = 3 and items = 8 in
  let o = Fuzz.run ~bug ~workers ~items ~seed:2023 () in
  check_bool "seed 2023 fails under torn-claim" true (o.Fuzz.failure <> None);
  let s = Fuzz.shrink ~bug ~workers ~items o.Fuzz.trace in
  check_bool "shrunk trace is no longer than the original" true
    (List.length s <= List.length o.Fuzz.trace);
  let r = Fuzz.replay ~bug ~workers ~items ~choices:s () in
  check_bool "shrunk trace still fails" true (r.Fuzz.failure <> None)

(* The bridge: findings become RACE/LOCK/OWN diagnostics, the summary note
   appears, and the recorder's counters land in telemetry. *)
let report_bridge () =
  let fx = Option.get (Fixtures.find "unguarded-cache-write") in
  let fs = Fixtures.run fx in
  check_bool "fixture produced findings" true (fs <> []);
  let report = SReport.to_report ~summary:true () in
  let module D = Waltz_verify.Diagnostic in
  check_bool "RACE01 diagnostic present" true (D.with_rule "RACE01" report <> []);
  check_bool "summary note present" true (D.with_rule "RACE00" report <> []);
  check_bool "report is not clean" false (D.is_clean report);
  check_int "ops_checked mirrors instrumented accesses"
    (Sanitize.stats ()).Sanitize.accesses report.D.ops_checked;
  let module T = Waltz_telemetry.Telemetry in
  T.reset ();
  T.enable ();
  SReport.flush_telemetry ();
  T.disable ();
  check_bool "access counter flushed" true
    (T.Metrics.counter "sanitize.access.instrumented" > 0);
  check_bool "race counter flushed" true (T.Metrics.counter "sanitize.race.reported" > 0);
  T.reset ();
  Sanitize.reset ()

(* A real production run — compile and simulate through the shared pool with
   the recorder watching every instrumented hot spot — must be clean. *)
let clean_run ~domains () =
  let config = { Executor.model = Noise.default; trajectories = 5; base_seed = 11 } in
  with_sanitizer (fun () ->
      List.iter
        (fun circuit ->
          List.iter
            (fun (strategy : Strategy.t) ->
              ignore
                (Executor.simulate_detailed ~config ~domains
                   (Compile.compile strategy circuit)))
            [ Strategy.mixed_radix_ccz; Strategy.full_ququart ])
        [ Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ];
          Waltz_benchmarks.Bench_circuits.by_total_qubits Cuccaro 5 ];
      (match Sanitize.findings () with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "finding on clean run: %s %s: %s" f.Sanitize.rule f.Sanitize.site
          f.Sanitize.message);
      check_bool "instrumented accesses observed" true
        ((Sanitize.stats ()).Sanitize.accesses > 0))

let suite =
  [ case "disabled mode records nothing and is transparent" disabled_no_op;
    case "lock handoff orders accesses (no RACE01)" hb_lock_handoff_ordered;
    case "unordered writes race (RACE01)" hb_unordered_race;
    case "fork/join handoff is clean in both modes" hb_fork_join_ordered;
    case "lockset discipline (RACE02)" lockset_discipline;
    case "indexed sites are independent" indexed_sites_independent;
    case "lock-order inversion cycles (LOCK01)" lock_order_cycle;
    case "lock misuse (LOCK02)" lock_misuse;
    case "release_seen tolerates acquisitions made before enable" lock_release_seen;
    case "arena ownership (OWN01)" arena_ownership;
    case "seeded-race fixtures flag exactly their rule" fixture_suite;
    case "fuzzer is deterministic per seed" fuzzer_deterministic;
    case "fuzzer finds nothing on the faithful protocol" fuzzer_clean_protocol;
    case "fuzzer finds every injected bug" fuzzer_finds_injected_bugs;
    case "shrinker keeps failures and never grows traces" shrinker_minimizes;
    case "findings bridge to diagnostics and telemetry" report_bridge;
    case "clean simulate grid (domains=1)" (clean_run ~domains:1);
    case "clean simulate grid (domains=2)" (clean_run ~domains:2) ]
