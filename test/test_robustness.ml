(* Robustness / integration tests: the compiler must never wedge or emit an
   inconsistent schedule across sizes, strategies and topologies; these run
   without simulation so they can afford larger instances. *)

open Waltz_circuit
open Waltz_arch
open Waltz_core
open Test_util

let check_compiled strategy (compiled : Physical.t) =
  (* Structural invariants of any compiled circuit. *)
  let name = strategy.Strategy.name in
  List.iter
    (fun (op : Physical.op) ->
      check_bool (name ^ ": positive duration") true (op.Physical.duration_ns > 0.);
      check_bool (name ^ ": fidelity in (0,1]") true
        (op.Physical.fidelity > 0. && op.Physical.fidelity <= 1.);
      check_bool (name ^ ": has parts") true (op.Physical.parts <> []);
      List.iter
        (fun (d, s) ->
          check_bool (name ^ ": device in range") true
            (d >= 0 && d < compiled.Physical.device_count);
          check_bool (name ^ ": slot in range") true (s = 0 || s = 1))
        op.Physical.targets)
    compiled.Physical.ops;
  (* Final map is a valid assignment: distinct slots, in range. *)
  let slots = Array.to_list compiled.Physical.final_map in
  check_int (name ^ ": final map injective")
    (List.length slots)
    (List.length (List.sort_uniq compare slots));
  check_bool (name ^ ": EPS in (0,1]") true
    (let eps = (Eps.estimate compiled).Eps.total_eps in
     eps > 0. && eps <= 1.)

let test_all_families_all_strategies () =
  List.iter
    (fun family ->
      List.iter
        (fun n ->
          let circuit = Waltz_benchmarks.Bench_circuits.by_total_qubits family n in
          List.iter
            (fun strategy ->
              check_compiled strategy (Compile.compile strategy circuit))
            Strategy.all)
        [ 6; 11; 15 ])
    Waltz_benchmarks.Bench_circuits.all_families

let test_large_instances () =
  (* The paper's largest evaluation size. *)
  let circuit = Waltz_benchmarks.Bench_circuits.by_total_qubits Cnu 21 in
  List.iter
    (fun strategy -> check_compiled strategy (Compile.compile strategy circuit))
    Strategy.fig7_set

let test_sparse_topologies () =
  let circuit = Waltz_benchmarks.Bench_circuits.cuccaro ~bits:3 in
  List.iter
    (fun make ->
      List.iter
        (fun strategy ->
          let devices = Compile.device_count strategy circuit.Circuit.n in
          let topology = make devices in
          check_compiled strategy (Compile.compile ~topology strategy circuit))
        [ Strategy.qubit_only; Strategy.qubit_itoffoli; Strategy.mixed_radix_ccz;
          Strategy.full_ququart ])
    [ Topology.line; Topology.ring; Topology.heavy_hex ]

let test_line_topology_equivalence () =
  (* Correctness (not just robustness) on the sparsest topology. *)
  let circuit = Waltz_benchmarks.Bench_circuits.cnu ~controls:3 in
  List.iter
    (fun strategy ->
      let devices = Compile.device_count strategy circuit.Circuit.n in
      check_equivalent ~topology:(Topology.line devices) strategy circuit)
    [ Strategy.qubit_only; Strategy.qubit_itoffoli; Strategy.mixed_radix_ccz;
      Strategy.full_ququart ]

let test_repeated_gate_stress () =
  (* The same three-qubit gate over and over: ENC/DEC bracketing must return
     to a clean lone-qubit state every time. *)
  let gates = List.init 12 (fun _ -> Gate.make Gate.Ccx [ 0; 1; 2 ]) in
  let circuit = Circuit.of_gates ~n:4 gates in
  let compiled = Compile.compile Strategy.mixed_radix_ccz circuit in
  let enc = List.length (List.filter (fun o -> o.Physical.label = "ENC") compiled.Physical.ops) in
  let dec =
    List.length (List.filter (fun o -> o.Physical.label = "ENCdg") compiled.Physical.ops)
  in
  check_int "enc/dec balanced" enc dec;
  check_int "one enc per gate" 12 enc

let prop_compile_total =
  qcheck ~count:12 "compilation terminates on random circuits"
    QCheck.(pair (int_range 0 999) (int_range 5 9))
    (fun (seed, n) ->
      let circuit =
        Waltz_benchmarks.Bench_circuits.synthetic ~n ~gates:(3 * n) ~cx_fraction:0.4 ~seed
      in
      List.for_all
        (fun strategy ->
          let compiled = Compile.compile strategy circuit in
          Physical.op_count compiled > 0)
        Strategy.all)

let suite =
  [ case "all families x strategies" test_all_families_all_strategies;
    case "paper-scale instances" test_large_instances;
    case "sparse topologies" test_sparse_topologies;
    case "line topology equivalence" test_line_topology_equivalence;
    case "repeated gate stress" test_repeated_gate_stress;
    prop_compile_total ]
