(* Seeded-defect fixtures for the static checker: each hand-built
   malformed [Physical.t] must fire exactly the rule it was built to
   violate and nothing else, through every pass unless a fixture selects
   some, without raising. Ops are constructed as raw records on purpose —
   the point is to check programs that [Physical.make_op] would already
   reject. *)
open Waltz_linalg
open Waltz_qudit
open Waltz_circuit
open Waltz_arch
open Waltz_core
open Waltz_verify
open Test_util

let part ~device ~noise ~occ =
  { Physical.device; noise; occ_before = occ; occ_after = occ }

let op ?(ww = false) ?duration ~label ~parts ~targets ~gate
    (entry : Calibration.entry) =
  { Physical.label;
    parts;
    targets;
    gate;
    duration_ns = Option.value ~default:entry.Calibration.duration_ns duration;
    fidelity = entry.Calibration.fidelity;
    touches_ww = ww }

let program ?(strategy = Strategy.mixed_radix_ccz) ?(device_dim = 4) ~n ~devices
    ~initial ~final ops =
  { Physical.strategy;
    n_logical = n;
    device_count = devices;
    device_dim;
    ops;
    initial_map = initial;
    final_map = final;
    schedule_memo = None;
    kernel_memo = None }

type fixture = {
  rule : string;
  passes : Verify.pass list;
  topology : Topology.t option;
  circuit : Circuit.t option;
  program : Physical.t;
}

let expect_only ?(passes = Verify.all_passes) ?topology ?circuit rule program =
  { rule; passes; topology; circuit; program }

let report fx = Verify.run ?topology:fx.topology ~passes:fx.passes fx.circuit fx.program

let check_fixture fx =
  let rule = fx.rule in
  let report = report fx in
  let errs = Diagnostic.errors report in
  if errs = [] then Alcotest.failf "%s did not fire; report:\n%s" rule
      (Diagnostic.report_to_string report);
  List.iter
    (fun (d : Diagnostic.t) ->
      if d.Diagnostic.rule <> rule then
        Alcotest.failf "expected only %s errors but got:\n%s" rule
          (Diagnostic.report_to_string report))
    errs

(* OCC02: a plain pulse acting on an empty virtual wire. *)
let gate_on_empty_slot () =
  let initial = [| (0, 1); (1, 1) |] in
  let p =
    program ~n:2 ~devices:2 ~initial ~final:(Array.copy initial)
      [ op ~ww:true ~label:"CZ^{q0}"
          ~parts:
            [ part ~device:0 ~noise:(Physical.P2 1) ~occ:1;
              part ~device:1 ~noise:(Physical.P2 1) ~occ:1 ]
          ~targets:[ (0, 1); (1, 0) ] ~gate:Gates.cz
          (Calibration.mr_cz ~slot:0) ]
  in
  expect_only "OCC02" p

(* OCC03: ENC into a ququart that already holds two qubits (a double-ENC). *)
let double_enc () =
  let initial = [| (0, 1); (1, 0); (1, 1) |] in
  let p =
    program ~n:3 ~devices:2 ~initial ~final:(Array.copy initial)
      [ op ~ww:true ~label:"ENC"
          ~parts:
            [ part ~device:0 ~noise:(Physical.P2 1) ~occ:1;
              part ~device:1 ~noise:Physical.P4 ~occ:2 ]
          ~targets:[ (0, 1); (1, 0); (1, 1) ]
          ~gate:(Emit.enc_gate ~incoming_slot:1)
          Calibration.enc ]
  in
  expect_only "OCC03" p

(* OCC04: DEC from a device that is not an encoded ququart. *)
let dec_from_unencoded () =
  let initial = [| (1, 1) |] in
  let p =
    program ~n:1 ~devices:2 ~initial ~final:(Array.copy initial)
      [ op ~ww:true ~label:"ENCdg"
          ~parts:
            [ part ~device:0 ~noise:Physical.Quiet ~occ:0;
              part ~device:1 ~noise:(Physical.P2 1) ~occ:1 ]
          ~targets:[ (0, 1); (1, 0); (1, 1) ]
          ~gate:(Mat.adjoint (Emit.enc_gate ~incoming_slot:1))
          Calibration.enc ]
  in
  expect_only "OCC04" p

(* OCC05: an encoded ququart annotated with a single-qubit noise role. *)
let wrong_noise_role () =
  let initial = [| (0, 0); (0, 1) |] in
  let p =
    program ~n:2 ~devices:1 ~initial ~final:(Array.copy initial)
      [ op ~ww:true ~label:"CX^0"
          ~parts:[ part ~device:0 ~noise:(Physical.P2 0) ~occ:2 ]
          ~targets:[ (0, 1); (0, 0) ] ~gate:Gates.cx
          (Calibration.internal_cx ~target_slot:0) ]
  in
  expect_only "OCC05" p

(* TOP01: a two-device pulse between devices a line topology does not couple. *)
let non_adjacent_devices () =
  let initial = [| (0, 1); (3, 1) |] in
  let p =
    program ~strategy:Strategy.full_ququart ~n:2 ~devices:4 ~initial
      ~final:(Array.copy initial)
      [ op ~label:"CZ^{11}"
          ~parts:
            [ part ~device:0 ~noise:(Physical.P2 1) ~occ:1;
              part ~device:3 ~noise:(Physical.P2 1) ~occ:1 ]
          ~targets:[ (0, 1); (3, 1) ] ~gate:Gates.cz
          (Calibration.fq_cz ~slot_a:1 ~slot_b:1) ]
  in
  expect_only "TOP01" ~topology:(Topology.line 4) p

(* WF01: the same device listed twice in an op's parts. *)
let duplicate_parts () =
  let initial = [| (0, 1) |] in
  let p =
    program ~n:1 ~devices:1 ~initial ~final:(Array.copy initial)
      [ op ~label:"U^1"
          ~parts:
            [ part ~device:0 ~noise:(Physical.P2 1) ~occ:1;
              part ~device:0 ~noise:(Physical.P2 1) ~occ:1 ]
          ~targets:[ (0, 1) ] ~gate:Gates.h
          (Calibration.embedded_1q ~slot:1) ]
  in
  expect_only "WF01" p

(* WF02 (fatal): gate dimension does not match the target count. *)
let gate_dimension_mismatch () =
  let initial = [| (0, 1) |] in
  let p =
    program ~n:1 ~devices:1 ~initial ~final:(Array.copy initial)
      [ op ~label:"U^1"
          ~parts:[ part ~device:0 ~noise:(Physical.P2 1) ~occ:1 ]
          ~targets:[ (0, 1) ] ~gate:Gates.cz
          (Calibration.embedded_1q ~slot:1) ]
  in
  expect_only "WF02" p

(* WF03: a target wire on a device the op's parts do not mention. *)
let target_not_in_parts () =
  let initial = [| (0, 1); (1, 1) |] in
  let p =
    program ~n:2 ~devices:2 ~initial ~final:(Array.copy initial)
      [ op ~label:"CZ^{11}"
          ~parts:[ part ~device:0 ~noise:(Physical.P2 1) ~occ:1 ]
          ~targets:[ (0, 1); (1, 1) ] ~gate:Gates.cz
          (Calibration.fq_cz ~slot_a:1 ~slot_b:1) ]
  in
  expect_only "WF03" p

(* WF04 (fatal): one wire named twice among an op's targets. *)
let duplicate_target_wire () =
  let initial = [| (0, 1); (1, 1) |] in
  let p =
    program ~n:2 ~devices:2 ~initial ~final:(Array.copy initial)
      [ op ~label:"CZ^{11}"
          ~parts:
            [ part ~device:0 ~noise:(Physical.P2 1) ~occ:1;
              part ~device:1 ~noise:(Physical.P2 1) ~occ:1 ]
          ~targets:[ (0, 1); (0, 1) ] ~gate:Gates.cz
          (Calibration.fq_cz ~slot_a:1 ~slot_b:1) ]
  in
  expect_only "WF04" p

(* WF05 (fatal): two logical qubits placed on the same wire. *)
let non_injective_map () =
  let p =
    program ~n:2 ~devices:2
      ~initial:[| (0, 1); (0, 1) |]
      ~final:[| (0, 1); (1, 1) |]
      []
  in
  expect_only "WF05" p

(* WF06 (fatal): an op on a device the program does not have. *)
let device_out_of_range () =
  let initial = [| (0, 1) |] in
  let p =
    program ~n:1 ~devices:1 ~initial ~final:(Array.copy initial)
      [ op ~label:"U^1"
          ~parts:[ part ~device:1 ~noise:(Physical.P2 1) ~occ:1 ]
          ~targets:[ (1, 1) ] ~gate:Gates.h
          (Calibration.embedded_1q ~slot:1) ]
  in
  expect_only "WF06" p

(* WF06 (fatal): a target wire on a slot a ququart does not have. *)
let slot_out_of_range () =
  let initial = [| (0, 1) |] in
  let p =
    program ~n:1 ~devices:1 ~initial ~final:(Array.copy initial)
      [ op ~label:"U^1"
          ~parts:[ part ~device:0 ~noise:(Physical.P2 1) ~occ:1 ]
          ~targets:[ (0, 2) ] ~gate:Gates.h
          (Calibration.embedded_1q ~slot:1) ]
  in
  expect_only "WF06" p

(* WF06 (fatal): the initial placement names a device out of range. *)
let initial_map_out_of_range () =
  let p =
    program ~n:1 ~devices:1 ~initial:[| (1, 1) |] ~final:[| (0, 1) |]
      [ op ~label:"U^1"
          ~parts:[ part ~device:0 ~noise:(Physical.P2 1) ~occ:1 ]
          ~targets:[ (0, 1) ] ~gate:Gates.h
          (Calibration.embedded_1q ~slot:1) ]
  in
  expect_only "WF06" p

(* CIR03: a built-in gate with the wrong operand count. The replay and the
   tableau skip such a circuit instead of raising. *)
let wrong_operand_count () =
  let circuit = Circuit.add (Circuit.add (Circuit.empty 2) Gate.H [ 0 ]) Gate.Cx [ 0; 1 ] in
  let compiled = Compile.compile Strategy.qubit_only circuit in
  let malformed =
    { circuit with
      Circuit.gates = circuit.Circuit.gates @ [ { Gate.kind = Gate.Cx; qubits = [ 1 ] } ] }
  in
  expect_only "CIR03" ~circuit:malformed compiled

(* SCHED02: the op that finishes last is memoized 100 ns after its ASAP
   start, so total_duration overshoots the critical path. Nothing later
   shares its devices, so no op overlaps it. *)
let delayed_last_op () =
  let compiled =
    Compile.compile Strategy.mixed_radix_ccz
      (Waltz_benchmarks.Bench_circuits.by_total_qubits Cuccaro 6)
  in
  let schedule = Array.copy (Physical.schedule_array compiled) in
  let finish ((o : Physical.op), start) = start +. o.Physical.duration_ns in
  let last = ref 0 in
  Array.iteri (fun i e -> if finish e > finish schedule.(!last) then last := i) schedule;
  let o, start = schedule.(!last) in
  schedule.(!last) <- (o, start +. 100.);
  let memo = Option.get compiled.Physical.schedule_memo in
  let delayed =
    { compiled with Physical.schedule_memo = Some { memo with Physical.starts = schedule } }
  in
  close ~tol:1e-6 "total_duration moves by the delay"
    (Physical.total_duration compiled +. 100.)
    (Physical.total_duration delayed);
  expect_only "SCHED02" delayed

(* A copy [{ p with ops }] carries [p]'s warm schedule and kernel memos;
   its schedule must still list its own ops, in order, or every reader of
   the schedule (the executor's plan, EPS, SCHED) would see [p]'s
   program. *)
let test_memo_follows_ops () =
  let compiled =
    Compile.compile Strategy.mixed_radix_ccz
      (Waltz_benchmarks.Bench_circuits.by_total_qubits Cuccaro 6)
  in
  ignore (Physical.schedule_array compiled);
  let ops = compiled.Physical.ops in
  let same_ops what (p : Physical.t) =
    let sched = Physical.schedule_array p in
    check_int (what ^ ": one entry per op") (List.length p.Physical.ops) (Array.length sched);
    List.iteri
      (fun i o ->
        check_bool (Printf.sprintf "%s: entry %d is op %d" what i i) true (fst sched.(i) == o))
      p.Physical.ops
  in
  same_ops "reversed" { compiled with Physical.ops = List.rev ops };
  same_ops "last op dropped"
    { compiled with Physical.ops = List.filteri (fun i _ -> i < List.length ops - 1) ops };
  same_ops "original" compiled;
  (* The executor's kernel memo follows the same rule: once [compiled] has
     run, a reversed copy places and runs its own kernels, and its
     statistics match a copy whose memo starts cold. *)
  let module Telemetry = Waltz_telemetry.Telemetry in
  let config = { Executor.default_config with Executor.trajectories = 4 } in
  ignore (Executor.simulate ~config ~domains:1 compiled);
  let reversed = { compiled with Physical.ops = List.rev ops } in
  Telemetry.reset ();
  Telemetry.enable ();
  let warm =
    Fun.protect ~finally:Telemetry.disable (fun () ->
        Executor.simulate_detailed ~config ~domains:1 reversed)
  in
  check_int "reversed: places its own kernels" 1
    (Telemetry.Metrics.counter "executor.kernel_memo.miss");
  let cold =
    Executor.simulate_detailed ~config ~domains:1
      { reversed with Physical.kernel_memo = None }
  in
  check_bool "reversed: statistics of its own kernels" true (warm = cold)

(* SCHED03: a negative duration (pass-selected so CAL01 stays out of frame). *)
let negative_duration () =
  let initial = [| (0, 1); (1, 1) |] in
  let p =
    program ~n:2 ~devices:2 ~initial ~final:(Array.copy initial)
      [ op ~duration:(-5.) ~label:"CZ^{q0}"
          ~parts:
            [ part ~device:0 ~noise:(Physical.P2 1) ~occ:1;
              part ~device:1 ~noise:(Physical.P2 1) ~occ:1 ]
          ~targets:[ (0, 1); (1, 1) ] ~gate:Gates.cz
          (Calibration.mr_cz ~slot:0) ]
  in
  expect_only "SCHED03" ~passes:[ Verify.Structural; Verify.Schedule ] p

(* CAL01: a (duration, fidelity) pair matching no calibration entry. *)
let uncalibrated_duration () =
  let initial = [| (0, 1); (1, 1) |] in
  let bogus = { Calibration.label = "CZ_bogus"; duration_ns = 123.; fidelity = 0.99 } in
  let p =
    program ~n:2 ~devices:2 ~initial ~final:(Array.copy initial)
      [ op ~label:"CZ_bogus"
          ~parts:
            [ part ~device:0 ~noise:(Physical.P2 1) ~occ:1;
              part ~device:1 ~noise:(Physical.P2 1) ~occ:1 ]
          ~targets:[ (0, 1); (1, 1) ] ~gate:Gates.cz bogus ]
  in
  expect_only "CAL01" p

(* CAL03: claiming to touch levels |2>/|3> on two-level hardware. *)
let ww_on_bare_qubits () =
  let initial = [| (0, 0); (1, 0) |] in
  let p =
    program ~strategy:Strategy.qubit_only ~device_dim:2 ~n:2 ~devices:2 ~initial
      ~final:(Array.copy initial)
      [ op ~ww:true ~label:"CZ_2"
          ~parts:
            [ part ~device:0 ~noise:(Physical.P2 0) ~occ:1;
              part ~device:1 ~noise:(Physical.P2 0) ~occ:1 ]
          ~targets:[ (0, 0); (1, 0) ] ~gate:Gates.cz Calibration.qubit_cz ]
  in
  expect_only "CAL03" p

(* EQ01: a compiled program with one gate silently replaced by the identity
   is structurally impeccable — only the equivalence replay can catch it. *)
let tampered_gate_caught_by_equivalence () =
  let circuit = Circuit.add (Circuit.add (Circuit.empty 2) Gate.H [ 0 ]) Gate.Cx [ 0; 1 ] in
  let compiled = Compile.compile Strategy.qubit_only circuit in
  check_bool "fixture has a CX_2 to tamper" true
    (List.exists (fun (o : Physical.op) -> o.Physical.label = "CX_2") compiled.Physical.ops);
  let tampered =
    { compiled with
      Physical.ops =
        List.map
          (fun (o : Physical.op) ->
            if o.Physical.label = "CX_2" then { o with Physical.gate = Mat.identity 4 }
            else o)
          compiled.Physical.ops }
  in
  expect_only "EQ01" ~circuit tampered

(* WF09 plus EQ01 or EQ02: a NaN gate is not unitary, and since WF09 is
   not fatal the equivalence replay still runs and sees the NaN state. *)
let nan_gate_fires_wf09_and_eq () =
  let circuit = Circuit.add (Circuit.add (Circuit.empty 2) Gate.H [ 0 ]) Gate.Cx [ 0; 1 ] in
  let compiled = Compile.compile Strategy.qubit_only circuit in
  let nan_gate (o : Physical.op) =
    if o.Physical.label = "CX_2" then
      { o with Physical.gate = Mat.scale (Cplx.re Float.nan) o.Physical.gate }
    else o
  in
  let p = { compiled with Physical.ops = List.map nan_gate compiled.Physical.ops } in
  let rules =
    List.map (fun (d : Diagnostic.t) -> d.Diagnostic.rule)
      (Diagnostic.errors (Verify.run (Some circuit) p))
  in
  check_bool "WF09" true (List.mem "WF09" rules);
  check_bool "EQ01 or EQ02" true (List.mem "EQ01" rules || List.mem "EQ02" rules)

let test_classification () =
  let enc =
    op ~label:"ENC" ~parts:[] ~targets:[] ~gate:(Emit.enc_gate ~incoming_slot:1)
      Calibration.enc
  in
  let dec =
    op ~label:"ENCdg" ~parts:[] ~targets:[]
      ~gate:(Mat.adjoint (Emit.enc_gate ~incoming_slot:0))
      Calibration.enc
  in
  let move =
    op ~label:"SWAP_2" ~parts:[] ~targets:[ (0, 0); (1, 0) ] ~gate:Gates.swap
      Calibration.qubit_swap
  in
  let plain =
    op ~label:"CZ_2" ~parts:[] ~targets:[ (0, 0); (1, 0) ] ~gate:Gates.cz
      Calibration.qubit_cz
  in
  check_bool "enc" true (Dataflow.classify enc = Dataflow.Enc);
  check_bool "dec" true (Dataflow.classify dec = Dataflow.Dec);
  check_bool "move" true (Dataflow.classify move = Dataflow.Move);
  check_bool "plain" true (Dataflow.classify plain = Dataflow.Plain)


let fixtures =
  [ ("OCC02 gate on empty slot", gate_on_empty_slot);
    ("OCC03 double ENC", double_enc);
    ("OCC04 DEC from unencoded device", dec_from_unencoded);
    ("OCC05 wrong noise role", wrong_noise_role);
    ("TOP01 non-adjacent devices", non_adjacent_devices);
    ("WF01 duplicate parts", duplicate_parts);
    ("WF02 gate dimension mismatch", gate_dimension_mismatch);
    ("WF03 target not in parts", target_not_in_parts);
    ("WF04 duplicate target wire", duplicate_target_wire);
    ("WF05 non-injective map", non_injective_map);
    ("WF06 device out of range", device_out_of_range);
    ("WF06 slot out of range", slot_out_of_range);
    ("WF06 initial_map out of range", initial_map_out_of_range);
    ("CIR03 wrong operand count", wrong_operand_count);
    ("SCHED02 delayed last op", delayed_last_op);
    ("SCHED03 negative duration", negative_duration);
    ("CAL01 uncalibrated duration", uncalibrated_duration);
    ("CAL03 ww on bare qubits", ww_on_bare_qubits);
    ("EQ01 tampered gate", tampered_gate_caught_by_equivalence) ]

(* Every fixture's report is valid SARIF under the default catalog, and
   each result's ruleIndex names its own rule. *)
let test_fixture_sarif () =
  let module Json = Waltz_telemetry.Json in
  List.iter
    (fun (name, fixture) ->
      let sarif = Sarif.to_sarif (report (fixture ())) in
      (match Sarif.validate sarif with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: invalid SARIF: %s" name e);
      let field k doc =
        match Json.member k doc with
        | Some v -> v
        | None -> Alcotest.failf "%s: SARIF lacks %s" name k
      in
      let items = function Json.Arr l -> l | _ -> Alcotest.failf "%s: not an array" name in
      let str = function Json.Str s -> s | _ -> Alcotest.failf "%s: not a string" name in
      let run =
        match Json.parse sarif with
        | Ok doc -> List.hd (items (field "runs" doc))
        | Error e -> Alcotest.failf "%s: %s" name e
      in
      let rules =
        Array.of_list
          (List.map (fun r -> str (field "id" r))
             (items (field "rules" (field "driver" (field "tool" run)))))
      in
      List.iter
        (fun result ->
          let id = str (field "ruleId" result) in
          match Json.num (field "ruleIndex" result) with
          | Some i -> Alcotest.(check string) (name ^ ": ruleIndex names " ^ id) id rules.(int_of_float i)
          | None -> Alcotest.failf "%s: ruleIndex of %s is not a number" name id)
        (items (field "results" run)))
    fixtures

let suite =
  List.map (fun (name, fixture) -> case name (fun () -> check_fixture (fixture ()))) fixtures
  @ [ case "SARIF of every fixture report" test_fixture_sarif;
      case "schedule memo follows a copy's ops" test_memo_follows_ops;
      case "NaN gate fires WF09 and EQ" nan_gate_fires_wf09_and_eq;
      case "op classification" test_classification ]
