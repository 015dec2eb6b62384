(* Lint-time gate: the example-sized circuits must compile, under every
   strategy, to programs that every checker pass accepts with zero errors,
   and the SARIF serialization of every report must pass the built-in
   validator. Attached to the @lint and @runtest aliases (see
   examples/dune and the Makefile). *)
open Waltz_core
open Waltz_verify

(* bv-8 is the one circuit above the 7-qubit equivalence bound: its
   Hadamard layer spreads each basis input over 256 states, and its replay
   (about 0.3 s per program) would dominate the gate's run time, so it is
   checked without EQ. *)
let circuits =
  let open Waltz_benchmarks.Bench_circuits in
  [ ("cnu-5", by_total_qubits Cnu 5);
    ("cuccaro-6", by_total_qubits Cuccaro 6);
    ("qram-6", by_total_qubits Qram 6);
    ("grover-5", grover ~address_bits:3 ~marked:2 ~iterations:1);
    ("bv-8", bernstein_vazirani ~n:8 ~secret:0b1011001) ]

let () =
  let failures = ref 0 in
  let fail name strategy what detail =
    incr failures;
    Printf.printf "%-10s %-18s %s:\n%s\n" name strategy.Strategy.name what detail
  in
  List.iter
    (fun (name, circuit) ->
      List.iter
        (fun strategy ->
          let compiled = Compile.compile strategy circuit in
          let report = Verify.run ~equiv_max_qubits:7 (Some circuit) compiled in
          if not (Diagnostic.is_clean report) then
            fail name strategy "VERIFY FAILED" (Diagnostic.report_to_string report)
          else
            match Sarif.validate (Sarif.to_sarif report) with
            | Error msg -> fail name strategy "INVALID SARIF" msg
            | Ok _ ->
              Printf.printf "%-10s %-18s ok (%d ops, %d warnings)\n" name
                strategy.Strategy.name report.Diagnostic.ops_checked
                (Diagnostic.warning_count report))
        Strategy.all)
    circuits;
  if !failures > 0 then begin
    Printf.printf "verify_examples: %d failures\n" !failures;
    exit 1
  end;
  print_endline "verify_examples: every compilation verifies clean"
