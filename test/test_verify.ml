(* Regression net for the IR verifier (satellite of the waltz_verify PR):
   every benchmark family under every strategy must compile to a program the
   verifier accepts with zero errors, including the bounded semantic
   equivalence replay for these small instances. Warnings are printed but do
   not fail the test. *)
open Waltz_core
open Waltz_verify
open Test_util

let benchmark_circuits =
  let open Waltz_benchmarks.Bench_circuits in
  [ ("cnu", by_total_qubits Cnu 6);
    ("cuccaro", by_total_qubits Cuccaro 6);
    ("qram", by_total_qubits Qram 6);
    ("select", by_total_qubits Select 6);
    ("cnu-chain", cnu_chain ~controls:3);
    ("grover", grover ~address_bits:3 ~marked:5 ~iterations:1);
    ("bernstein-vazirani", bernstein_vazirani ~n:5 ~secret:0b1011);
    ("synthetic", synthetic ~n:6 ~gates:12 ~cx_fraction:0.5 ~seed:7) ]

let check_clean ~label circuit strategy =
  let compiled = Compile.compile strategy circuit in
  let report = Verify.run (Some circuit) compiled in
  List.iter
    (fun d ->
      if d.Diagnostic.severity = Diagnostic.Warning then
        Printf.printf "  [%s] warning: %s\n" label (Format.asprintf "%a" Diagnostic.pp d))
    report.Diagnostic.diagnostics;
  if not (Diagnostic.is_clean report) then
    Alcotest.failf "%s: verifier found errors:\n%s" label
      (Diagnostic.report_to_string report);
  check_bool (label ^ " all passes ran") true
    (List.length report.Diagnostic.passes_run = List.length Verify.all_passes)

let test_benchmarks_verify () =
  List.iter
    (fun (name, circuit) ->
      List.iter
        (fun strategy ->
          check_clean
            ~label:(Printf.sprintf "%s/%s" name strategy.Strategy.name)
            circuit strategy)
        Strategy.all)
    benchmark_circuits

(* The equivalence pass must actually run (not silently skip) at these
   sizes, and must step aside with an EQ00 info past its bound. *)
let test_equivalence_bound () =
  let circuit = Waltz_benchmarks.Bench_circuits.by_total_qubits Cuccaro 6 in
  let compiled = Compile.compile Strategy.mixed_radix_ccz circuit in
  let report = Verify.run (Some circuit) compiled in
  check_bool "no EQ00 skip at n=6" true
    (Diagnostic.with_rule "EQ00" report = []);
  let report = Verify.run ~equiv_max_qubits:3 (Some circuit) compiled in
  check_bool "EQ00 skip when bound lowered" true
    (Diagnostic.with_rule "EQ00" report <> []);
  check_bool "skip is not an error" true (Diagnostic.is_clean report)

let test_no_circuit_skips_equivalence () =
  let circuit = Waltz_benchmarks.Bench_circuits.by_total_qubits Cnu 5 in
  let compiled = Compile.compile Strategy.full_ququart circuit in
  let report = Verify.run None compiled in
  check_bool "still clean" true (Diagnostic.is_clean report);
  check_bool "EQ00 notes the missing circuit" true
    (Diagnostic.with_rule "EQ00" report <> [])

let test_rule_catalog_covers_diagnostics () =
  (* Every diagnostic the verifier can emit must be documented in the rule
     catalog, and ids must be unique. *)
  let ids = List.map (fun r -> r.Rules.id) Rules.all in
  check_int "rule ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  let circuit = Waltz_benchmarks.Bench_circuits.by_total_qubits Qram 6 in
  List.iter
    (fun strategy ->
      let compiled = Compile.compile strategy circuit in
      let report = Verify.run (Some circuit) compiled in
      List.iter
        (fun d ->
          check_bool
            (Printf.sprintf "rule %s catalogued" d.Diagnostic.rule)
            true
            (Rules.find d.Diagnostic.rule <> None))
        report.Diagnostic.diagnostics)
    Strategy.all

let suite =
  [ case "benchmarks x strategies verify clean" test_benchmarks_verify;
    case "equivalence bound" test_equivalence_bound;
    case "no circuit skips equivalence" test_no_circuit_skips_equivalence;
    case "rule catalog" test_rule_catalog_covers_diagnostics ]
