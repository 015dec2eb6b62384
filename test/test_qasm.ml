open Waltz_circuit
open Test_util

let g = Gate.make

let sample =
  Circuit.of_gates ~n:4
    [ g Gate.H [ 0 ];
      g (Gate.Rz 0.75) [ 1 ];
      g Gate.Cx [ 0; 1 ];
      g Gate.Ccx [ 0; 1; 2 ];
      g Gate.Ccz [ 1; 2; 3 ];
      g Gate.Cswap [ 0; 2; 3 ];
      g Gate.Sdg [ 3 ];
      g Gate.Csdg [ 0; 3 ];
      g (Gate.Phase (Float.pi /. 8.)) [ 2 ] ]

let test_roundtrip () =
  let text = Qasm.to_string sample in
  let back = Qasm.of_string text in
  check_int "qubit count" sample.Circuit.n back.Circuit.n;
  check_int "gate count" (Circuit.gate_count sample) (Circuit.gate_count back);
  mat_equal_phase "roundtrip preserves semantics" (Circuit.to_unitary sample)
    (Circuit.to_unitary back)

let test_parse_handwritten () =
  let text =
    {|OPENQASM 2.0;
// a Bell pair with flourishes
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/4) q[1];
rx(-pi/2) q[2];
u1(2*pi/3) q[0];
toffoli q[0], q[1], q[2];
measure q[0] -> c[0];
|}
  in
  let c = Qasm.of_string text in
  check_int "3 qubits" 3 c.Circuit.n;
  check_int "6 gates" 6 (Circuit.gate_count c);
  let has_angle theta =
    List.exists
      (fun gt ->
        match gt.Gate.kind with
        | Gate.Rz t | Gate.Rx t | Gate.Phase t -> Float.abs (t -. theta) < 1e-12
        | _ -> false)
      c.Circuit.gates
  in
  check_bool "pi/4 parsed" true (has_angle (Float.pi /. 4.));
  check_bool "-pi/2 parsed" true (has_angle (-.Float.pi /. 2.));
  check_bool "2*pi/3 parsed" true (has_angle (2. *. Float.pi /. 3.))

let test_export_format () =
  let text = Qasm.to_string sample in
  check_bool "has header" true
    (String.length text > 12 && String.sub text 0 12 = "OPENQASM 2.0");
  check_bool "declares register" true
    (List.exists (fun l -> String.trim l = "qreg q[4];") (String.split_on_char '\n' text))

let test_errors () =
  (try
     ignore (Qasm.of_string "OPENQASM 2.0; qreg q[2]; frobnicate q[0];");
     Alcotest.fail "unsupported gate accepted"
   with Failure _ -> ());
  (try
     ignore (Qasm.of_string "h q[0];");
     Alcotest.fail "missing qreg accepted"
   with Failure _ -> ())

(* One circuit holding every exportable gate kind, angles included. *)
let every_kind =
  Circuit.of_gates ~n:5
    [ g Gate.X [ 0 ]; g Gate.Y [ 1 ]; g Gate.Z [ 2 ]; g Gate.H [ 3 ]; g Gate.S [ 4 ];
      g Gate.Sdg [ 0 ]; g Gate.T [ 1 ]; g Gate.Tdg [ 2 ];
      g (Gate.Rx 0.1) [ 3 ]; g (Gate.Ry (-.Float.pi /. 3.)) [ 4 ];
      g (Gate.Rz 1e-20) [ 0 ]; g (Gate.Phase (2. *. Float.pi /. 3.)) [ 1 ];
      g Gate.Cx [ 0; 4 ]; g Gate.Cz [ 1; 3 ]; g Gate.Swap [ 2; 0 ]; g Gate.Csdg [ 3; 1 ];
      g Gate.Ccx [ 0; 1; 2 ]; g Gate.Ccz [ 4; 3; 2 ]; g Gate.Cswap [ 1; 0; 4 ];
      g Gate.Cccx [ 0; 1; 2; 3 ]; g Gate.Cccz [ 4; 3; 2; 1 ] ]

let every_kind_golden =
  {|OPENQASM 2.0;
include "qelib1.inc";
gate ccz a,b,c { h c; ccx a,b,c; h c; }
gate csdg a,b { cu1(-pi/2) a,b; }
gate cccz a,b,c,d { h d; c3x a,b,c,d; h d; }
qreg q[5];
x q[0];
y q[1];
z q[2];
h q[3];
s q[4];
sdg q[0];
t q[1];
tdg q[2];
rx(0.10000000000000001) q[3];
ry(-1.0471975511965976) q[4];
rz(9.9999999999999995e-21) q[0];
u1(2.0943951023931953) q[1];
cx q[0],q[4];
cz q[1],q[3];
swap q[2],q[0];
csdg q[3],q[1];
ccx q[0],q[1],q[2];
ccz q[4],q[3],q[2];
cswap q[1],q[0],q[4];
c3x q[0],q[1],q[2],q[3];
cccz q[4],q[3],q[2],q[1];
|}

let test_export_golden () =
  Alcotest.(check string) "every gate kind" every_kind_golden (Qasm.to_string every_kind);
  check_int "parses back" (Circuit.gate_count every_kind)
    (Circuit.gate_count (Qasm.of_string every_kind_golden))

(* [text] must fail with one [Failure] located at source line [line] whose
   message mentions [what]. *)
let expect_located ~line ~what text =
  match Qasm.of_string text with
  | _ -> Alcotest.failf "accepted: %S" text
  | exception Failure msg ->
    let prefix = Printf.sprintf "QASM line %d: " line in
    let has sub =
      let n = String.length sub in
      let rec at i = i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1)) in
      at 0
    in
    if not (String.starts_with ~prefix msg && has what) then
      Alcotest.failf "expected %S...%S, got %S" prefix what msg

let header = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"

(* The line is the source line, past comments and multi-line gate
   definitions, not the statement's index. *)
let test_error_lines () =
  expect_located ~line:5 ~what:"bad angle" (header ^ "h q[0];\nrz(pi/x) q[1];\n");
  expect_located ~line:9 ~what:"bad angle"
    ("// leading comment\n" ^ header
    ^ "gate mine a,b {\n  cx a,b;\n}\nh q[0]; // trailing comment\nrx(two) q[1];\n");
  expect_located ~line:6 ~what:"unsupported gate" (header ^ "\n\nfrobnicate q[0];")

(* Every spelling of a non-finite angle is refused at its line, before it
   can reach the compiler or the simulator. *)
let test_non_finite_angle spelling () =
  expect_located ~line:4 ~what:"finite angle"
    (Printf.sprintf
       "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\nrz(%s) q[0];\ncx q[0],q[1];\nccx q[0],q[1],q[2];\n"
       spelling)

let test_register_size () =
  expect_located ~line:1 ~what:"positive integer" "qreg q[-2];\nh q[0];\n";
  expect_located ~line:2 ~what:"positive integer" "OPENQASM 2.0;\nqreg q[0];\n";
  expect_located ~line:1 ~what:"positive integer" "qreg q[two];"

let test_operand_errors () =
  expect_located ~line:4 ~what:"bad operand" (header ^ "cx q[a],q[1];");
  expect_located ~line:4 ~what:"negative" (header ^ "h q[-1];");
  expect_located ~line:4 ~what:"duplicate" (header ^ "cx q[1],q[1];");
  expect_located ~line:4 ~what:"outside the 2-qubit register" (header ^ "cx q[0],q[5];");
  expect_located ~line:1 ~what:"before any qreg" "h q[0];\nqreg q[2];"

let test_four_qubit_roundtrip () =
  let c =
    Circuit.of_gates ~n:5
      [ g Gate.Cccx [ 0; 1; 2; 3 ]; g Gate.Cccz [ 1; 2; 3; 4 ]; g Gate.H [ 0 ] ]
  in
  let back = Qasm.of_string (Qasm.to_string c) in
  check_int "gates survive" 3 (Circuit.gate_count back);
  check_bool "c3x parsed back" true
    (List.exists (fun gt -> gt.Gate.kind = Gate.Cccx) back.Circuit.gates);
  check_bool "cccz parsed back" true
    (List.exists (fun gt -> gt.Gate.kind = Gate.Cccz) back.Circuit.gates)

let test_benchmarks_roundtrip () =
  List.iter
    (fun family ->
      let c = Waltz_benchmarks.Bench_circuits.by_total_qubits family 7 in
      let back = Qasm.of_string (Qasm.to_string c) in
      check_int
        (Printf.sprintf "%s gate count survives"
           (Waltz_benchmarks.Bench_circuits.family_name family))
        (Circuit.gate_count c) (Circuit.gate_count back))
    Waltz_benchmarks.Bench_circuits.all_families

let prop_roundtrip_semantics =
  qcheck ~count:15 "QASM roundtrip preserves semantics" QCheck.(int_range 0 3000)
    (fun seed ->
      let c =
        Waltz_benchmarks.Bench_circuits.synthetic ~n:4 ~gates:8 ~cx_fraction:0.5 ~seed
      in
      let back = Qasm.of_string (Qasm.to_string c) in
      Waltz_linalg.Mat.equal_up_to_phase ~tol:1e-8 (Circuit.to_unitary c)
        (Circuit.to_unitary back))

let suite =
  [ case "roundtrip" test_roundtrip;
    prop_roundtrip_semantics;
    case "parse handwritten" test_parse_handwritten;
    case "export format" test_export_format;
    case "errors" test_errors;
    case "export golden: every gate kind" test_export_golden;
    case "errors name their source line" test_error_lines;
    case "register size must be positive" test_register_size;
    case "operand errors are located" test_operand_errors;
    case "four qubit roundtrip" test_four_qubit_roundtrip;
    case "benchmark roundtrip" test_benchmarks_roundtrip ]
  @ List.map
      (fun spelling ->
        case (Printf.sprintf "angle %s is refused" spelling) (test_non_finite_angle spelling))
      [ "nan"; "inf"; "-inf"; "1e999"; "0/0" ]
