open Waltz_circuit
open Waltz_core
open Test_util

let toffoli_circuit =
  Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ]

let test_decompositions () =
  (* CCZ 6-CX decomposition. *)
  let c = Circuit.of_gates ~n:3 (Decompose.ccz_to_cx 0 1 2) in
  mat_equal_phase "ccz_to_cx" Waltz_qudit.Gates.ccz (Circuit.to_unitary c);
  let c = Circuit.of_gates ~n:3 (Decompose.ccx_to_cx 0 1 2) in
  mat_equal_phase "ccx_to_cx" Waltz_qudit.Gates.ccx (Circuit.to_unitary c);
  (* CSWAP shell: CX(b,a) CCX(c,a,b) CX(b,a) = CSWAP(c,a,b). *)
  let prefix, suffix = Decompose.cswap_shell 0 1 2 in
  let gates = prefix @ [ Gate.make Gate.Ccx [ 0; 1; 2 ] ] @ suffix in
  mat_equal_phase "cswap shell" Waltz_qudit.Gates.cswap
    (Circuit.to_unitary (Circuit.of_gates ~n:3 gates))

let test_pre_pass () =
  let circuit = toffoli_circuit in
  let decomposed = Decompose.pre Strategy.qubit_only circuit in
  let _, two, three = Circuit.count_by_arity decomposed in
  check_int "no 3q gates remain" 0 three;
  check_int "6 CX before routing" 6 two;
  let ccz_form = Decompose.pre Strategy.full_ququart circuit in
  check_bool "CCX became CCZ" true
    (List.exists (fun g -> g.Gate.kind = Gate.Ccz) ccz_form.Circuit.gates);
  let kept = Decompose.pre Strategy.mixed_radix_basic circuit in
  check_bool "direct mode keeps CCX" true
    (List.exists (fun g -> g.Gate.kind = Gate.Ccx) kept.Circuit.gates)

let test_enc_gate_consistency () =
  (* The compiler's 3-wire ENC permutation must match the qudit library's
     16x16 ENC on two ququarts (identity on the source's slot 0). *)
  List.iter
    (fun slot ->
      let small = Emit.enc_gate ~incoming_slot:slot in
      let lifted = Waltz_qudit.Embed.on_qubits ~n:4 ~targets:[ 1; 2; 3 ] small in
      mat_equal
        (Printf.sprintf "ENC slot %d consistent" slot)
        (Waltz_qudit.Encoding.enc ~incoming_slot:slot)
        lifted)
    [ 0; 1 ]

let test_single_toffoli_all_strategies () =
  List.iter (fun s -> check_equivalent s toffoli_circuit) Strategy.all

let test_bell_all_strategies () =
  let bell =
    Circuit.of_gates ~n:4
      [ Gate.make Gate.H [ 0 ];
        Gate.make Gate.Cx [ 0; 1 ];
        Gate.make Gate.Cx [ 1; 2 ];
        Gate.make Gate.Cx [ 2; 3 ] ]
  in
  List.iter (fun s -> check_equivalent s bell) Strategy.all

let test_cswap_all_strategies () =
  let c =
    Circuit.of_gates ~n:4
      [ Gate.make Gate.H [ 1 ];
        Gate.make Gate.Cswap [ 0; 1; 2 ];
        Gate.make Gate.Cx [ 2; 3 ];
        Gate.make Gate.Cswap [ 3; 2; 0 ] ]
  in
  List.iter (fun s -> check_equivalent s c) Strategy.all

let test_cuccaro_small_all_strategies () =
  let c = Waltz_benchmarks.Bench_circuits.cuccaro ~bits:1 in
  List.iter (fun s -> check_equivalent s c) Strategy.all

let test_qram_small_all_strategies () =
  let c = Waltz_benchmarks.Bench_circuits.qram ~address_bits:1 ~cells:2 in
  List.iter (fun s -> check_equivalent s c) Strategy.all

let test_cnu_small_all_strategies () =
  let c = Waltz_benchmarks.Bench_circuits.cnu ~controls:3 in
  List.iter (fun s -> check_equivalent s c) Strategy.all

let test_structure_intermediate () =
  let compiled = Compile.compile Strategy.mixed_radix_ccz toffoli_circuit in
  let ops = compiled.Physical.ops in
  let count label = List.length (List.filter (fun o -> o.Physical.label = label) ops) in
  check_int "one ENC" 1 (count "ENC");
  check_int "one ENCdg" 1 (count "ENCdg");
  check_int "one CCZ pulse" 1 (count "CCZ^{01q}");
  (* Encoded pair is transient: final map holds one qubit per device. *)
  let devices = Array.to_list (Array.map fst compiled.Physical.final_map) in
  check_int "all lone at the end" (List.length devices)
    (List.length (List.sort_uniq compare devices))

let test_structure_qubit_only () =
  let compiled = Compile.compile Strategy.qubit_only toffoli_circuit in
  check_int "2-level devices" 2 compiled.Physical.device_dim;
  check_bool "no ww pulses" true
    (List.for_all (fun o -> not o.Physical.touches_ww) compiled.Physical.ops);
  (* The paper's ≈8 two-qubit gates: 6 CX plus routing SWAPs. *)
  let multi = Physical.two_device_op_count compiled in
  check_bool "6 to 9 two-qubit gates" true (multi >= 6 && multi <= 9)

let test_structure_itoffoli () =
  let compiled = Compile.compile Strategy.qubit_itoffoli toffoli_circuit in
  let labels = List.map (fun o -> o.Physical.label) compiled.Physical.ops in
  check_bool "uses the iToffoli pulse" true (List.mem "iToffoli_3" labels);
  check_bool "applies the CSdg correction" true (List.mem "CSdg_2" labels)

let test_structure_packed () =
  let compiled = Compile.compile Strategy.full_ququart toffoli_circuit in
  check_int "two devices for three qubits" 2 compiled.Physical.device_count;
  check_int "4-level devices" 4 compiled.Physical.device_dim;
  check_bool "uses a full-ququart or mixed CCZ pulse" true
    (List.exists
       (fun o -> String.length o.Physical.label >= 3 && String.sub o.Physical.label 0 3 = "CCZ")
       compiled.Physical.ops)

let test_schedule_monotone () =
  let compiled = Compile.compile Strategy.mixed_radix_ccz toffoli_circuit in
  let sched = Physical.schedule compiled in
  check_bool "positive duration" true (Physical.total_duration compiled > 0.);
  (* Ops on the same device never overlap. *)
  let by_device = Hashtbl.create 8 in
  List.iter
    (fun ((op : Physical.op), start) ->
      List.iter
        (fun p ->
          let d = p.Physical.device in
          let prev = Option.value ~default:(-1.) (Hashtbl.find_opt by_device d) in
          check_bool "no overlap" true (start >= prev -. 1e-9);
          Hashtbl.replace by_device d (start +. op.Physical.duration_ns))
        op.Physical.parts)
    sched

let prop_random_circuits_equivalent =
  qcheck ~count:6 "random circuits compile correctly on every strategy"
    QCheck.(int_range 0 2000)
    (fun seed ->
      let c = Waltz_benchmarks.Bench_circuits.synthetic ~n:5 ~gates:6 ~cx_fraction:0.4 ~seed in
      List.iter (fun s -> check_equivalent s c) Strategy.all;
      true)

let suite =
  [ case "decompositions" test_decompositions;
    case "pre pass" test_pre_pass;
    case "enc gate consistency" test_enc_gate_consistency;
    case "toffoli equivalence (all strategies)" test_single_toffoli_all_strategies;
    case "bell chain equivalence" test_bell_all_strategies;
    case "cswap equivalence" test_cswap_all_strategies;
    case "cuccaro-1 equivalence" test_cuccaro_small_all_strategies;
    case "qram equivalence" test_qram_small_all_strategies;
    case "cnu-3 equivalence" test_cnu_small_all_strategies;
    case "intermediate structure" test_structure_intermediate;
    case "qubit-only structure" test_structure_qubit_only;
    case "itoffoli structure" test_structure_itoffoli;
    case "packed structure" test_structure_packed;
    case "schedule monotone" test_schedule_monotone;
    prop_random_circuits_equivalent ]
