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
   definitions, not the statement's index. A block outside a gate
   definition is refused at its line, not skipped with the gates in it and
   after it. *)
let test_error_lines () =
  expect_located ~line:5 ~what:"bad angle" (header ^ "h q[0];\nrz(pi/x) q[1];\n");
  expect_located ~line:9 ~what:"bad angle"
    ("// leading comment\n" ^ header
    ^ "gate mine a,b {\n  cx a,b;\n}\nh q[0]; // trailing comment\nrx(two) q[1];\n");
  expect_located ~line:6 ~what:"unsupported gate" (header ^ "\n\nfrobnicate q[0];");
  expect_located ~line:2 ~what:"bad statement" "qreg q[2];\n{ h q[0]; }\nx q[1];\n";
  expect_located ~line:5 ~what:"bad statement" (header ^ "h q[0];\n}\nx q[1];\n");
  expect_located ~line:7 ~what:"bad statement"
    (header ^ "gate mine a {\n  h a;\n}\n} x q[1];\n")

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

(* The reader supports one register: a second [qreg] is refused at its own
   line, and a text with none is refused at its last line. *)
let test_one_register () =
  expect_located ~line:3 ~what:"second qreg" "qreg q[5];\ncx q[0],q[4];\nqreg q[2];\n";
  expect_located ~line:2 ~what:"second qreg" "qreg a[2];\nqreg b[2];\ncx a[0],b[1];\n";
  expect_located ~line:1 ~what:"no qreg" "";
  expect_located ~line:2 ~what:"no qreg" "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n\n"

(* [msg] is one located line of at most 200 bytes. *)
let one_short_line msg =
  String.starts_with ~prefix:"QASM line " msg
  && String.length msg < 200
  && not (String.contains msg '\n')

(* A 100 KB statement fails with one short line that still names its line,
   whichever part of it is long. *)
let test_long_statement () =
  let big = 100_000 in
  List.iter
    (fun (label, statement) ->
      match Qasm.of_string (header ^ "h q[0];\n" ^ statement) with
      | _ -> Alcotest.failf "%s accepted" label
      | exception Failure msg ->
        if not (String.starts_with ~prefix:"QASM line 5: " msg && one_short_line msg) then
          Alcotest.failf "%s: %d-byte message %S..." label (String.length msg)
            (String.sub msg 0 (min 80 (String.length msg))))
    [ ("gate name", String.make big 'g' ^ " q[0];");
      ("angle", "rz(" ^ String.make big '(' ^ "pi" ^ String.make big ')' ^ ") q[0];");
      ("operand", "h q[0" ^ String.make big ' ' ^ "x];");
      ("register", "h " ^ String.make big 'r' ^ "[0];");
      ("operand list", "cx q[0]" ^ String.concat "" (List.init (big / 5) (fun _ -> ",q[1]")) ^ ";");
      ("statement", "[" ^ String.make big 'x' ^ ";") ]

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

(* Names no reader knows, none starting with a keyword the reader skips. *)
let unknown_names = [| "frob"; "u3"; "cu1"; "rzz"; "ch"; "c4x"; "cnot" |]

(* One mutant of a [Qasm.to_string] text, drawn by [rng]: truncated at a
   byte, a span deleted or duplicated, a gate renamed, an operand added or
   dropped, a size or an index of 20 digits, 10^4 nested parentheses in an
   angle, or a [}] dropped from a prelude definition. *)
let mutate rng text =
  let int k = Random.State.int rng (max 1 k) in
  let len = String.length text in
  let cut s a b = String.sub s 0 a ^ String.sub s b (String.length s - b) in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let rec qreg i = if String.starts_with ~prefix:"qreg" lines.(i) then i else qreg (i + 1) in
  (* The lines after the qreg line, but the empty last one, are gates. *)
  let edit_gate f =
    let i = qreg 0 + 1 + int (Array.length lines - qreg 0 - 2) in
    lines.(i) <- f lines.(i);
    String.concat "\n" (Array.to_list lines)
  in
  let nth_of ch = List.nth (List.filter (fun i -> text.[i] = ch) (List.init len Fun.id)) in
  let span_start = int len in
  let span_len = 1 + int (min 40 (len - span_start)) in
  match int 9 with
  | 0 -> String.sub text 0 (int (len + 1))
  | 1 -> cut text span_start (span_start + span_len)
  | 2 -> String.sub text 0 (span_start + span_len) ^ String.sub text span_start (len - span_start)
  | 3 ->
    edit_gate (fun l ->
        let sp = String.index l ' ' in
        unknown_names.(int (Array.length unknown_names)) ^ String.sub l sp (String.length l - sp))
  | 4 -> edit_gate (fun l -> String.sub l 0 (String.length l - 1) ^ Printf.sprintf ",q[%d];" (int 16))
  | 5 ->
    edit_gate (fun l ->
        cut l (String.rindex l (if String.contains l ',' then ',' else ' ')) (String.length l - 1))
  | 6 ->
    let a = nth_of '[' (int (String.fold_left (fun k ch -> if ch = '[' then k + 1 else k) 0 text)) + 1 in
    let b = String.index_from text a ']' in
    String.sub text 0 a ^ String.init 20 (fun _ -> Char.chr (48 + int 10)) ^ String.sub text b (len - b)
  | 7 -> edit_gate (fun _ -> "rz(" ^ String.make 10_000 '(' ^ "pi/2" ^ String.make 10_000 ')' ^ ") q[0];")
  | _ -> let b = nth_of '}' (int 3) in cut text b (b + 1)

(* The exports the mutants start from: the four families at 5-13 qubits,
   seeded synthetic circuits and the every-kind circuit, whose angles the
   mutations reach. *)
let fuzz_inputs =
  lazy
    (Array.of_list
       (List.concat_map
          (fun family ->
            List.init 9 (fun i ->
                Qasm.to_string (Waltz_benchmarks.Bench_circuits.by_total_qubits family (5 + i))))
          Waltz_benchmarks.Bench_circuits.all_families
       @ List.init 20 (fun seed ->
             Qasm.to_string
               (Waltz_benchmarks.Bench_circuits.synthetic ~n:(5 + (seed mod 9)) ~gates:(10 + seed)
                  ~cx_fraction:0.5 ~seed))
       @ [ Qasm.to_string every_kind ]))

(* Every mutant parses, or fails with exactly one located line: no other
   exception, and no message past 200 bytes or one line. *)
let prop_mutants =
  qcheck ~count:400 "QASM mutants parse or fail at one line" QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let inputs = Lazy.force fuzz_inputs in
      let text = mutate rng inputs.(Random.State.int rng (Array.length inputs)) in
      match Qasm.of_string text with
      | _ -> true
      | exception Failure msg ->
        one_short_line msg && Scanf.sscanf msg "QASM line %d: " (fun line -> line >= 1)
      | exception e -> QCheck.Test.fail_reportf "%s on %S" (Printexc.to_string e) text)

(* The reader is linear: 200,000 gates, and an error on the line after
   them, each take well under the bound; a quadratic path would take
   minutes. *)
let test_size_guard () =
  let gates = 200_000 in
  let c =
    Circuit.of_gates ~n:13
      (List.init gates (fun i ->
           if i mod 2 = 0 then g Gate.Cx [ i mod 13; (i + 5) mod 13 ]
           else g Gate.Ccx [ i mod 13; (i + 3) mod 13; (i + 7) mod 13 ]))
  in
  let text = Qasm.to_string c in
  let seconds f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let dt = seconds (fun () -> check_bool "same circuit" true (Qasm.of_string text = c)) in
  check_bool (Printf.sprintf "%d gates read in %.3f s" gates dt) true (dt < 5.);
  let dt =
    seconds (fun () ->
        expect_located ~line:(gates + 7) ~what:"unsupported gate" (text ^ "frob q[0];\n"))
  in
  check_bool (Printf.sprintf "the error after them in %.3f s" dt) true (dt < 5.)

(* OpenQASM allows any whitespace between tokens. *)
let test_whitespace () =
  List.iter
    (fun (spaced, single) ->
      let read body = Qasm.of_string ("OPENQASM 2.0;\nqreg q[2];\n" ^ body) in
      check_bool (Printf.sprintf "%S reads as %S" spaced single) true (read spaced = read single))
    [ ("h\tq[0];", "h q[0];"); ("h q [ 0 ];", "h q[0];"); ("gate\tg a { h a; }\nx q[1];", "gate g a { h a; }\nx q[1];");
      ("cx\r\n  q[0] ,\n\tq[1]\n;", "cx q[0],q[1];"); ("rz ( - pi / 2 ) q [1] ;", "rz(-pi/2) q[1];") ]

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
    case "one register" test_one_register;
    case "a 100 KB statement fails with one short line" test_long_statement;
    prop_mutants;
    case "200,000 gates read in linear time" test_size_guard;
    case "any whitespace between tokens" test_whitespace;
    case "four qubit roundtrip" test_four_qubit_roundtrip;
    case "benchmark roundtrip" test_benchmarks_roundtrip ]
  @ List.map
      (fun spelling ->
        case (Printf.sprintf "angle %s is refused" spelling) (test_non_finite_angle spelling))
      [ "nan"; "inf"; "-inf"; "1e999"; "0/0" ]
