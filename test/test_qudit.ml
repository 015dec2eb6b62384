open Waltz_linalg
open Waltz_qudit
open Test_util

let all_gates =
  [ ("X", Gates.x);
    ("Y", Gates.y);
    ("Z", Gates.z);
    ("H", Gates.h);
    ("S", Gates.s);
    ("T", Gates.t);
    ("Rx", Gates.rx 0.3);
    ("Ry", Gates.ry 1.2);
    ("Rz", Gates.rz (-0.8));
    ("P", Gates.phase 0.5);
    ("CX", Gates.cx);
    ("CZ", Gates.cz);
    ("CS", Gates.cs);
    ("CSdg", Gates.csdg);
    ("SWAP", Gates.swap);
    ("iSWAP", Gates.iswap);
    ("CCX", Gates.ccx);
    ("CCZ", Gates.ccz);
    ("CSWAP", Gates.cswap);
    ("iToffoli", Gates.itoffoli) ]

let test_gate_unitarity () =
  List.iter (fun (name, g) -> assert_unitary name g) all_gates

let test_gate_semantics () =
  (* CX flips the target when the control (most significant) is 1. *)
  let v = Mat.apply Gates.cx (Vec.basis 4 2) in
  check_bool "CX |10> = |11>" true (Cplx.close (Vec.get v 3) Cplx.one);
  let v = Mat.apply Gates.cx (Vec.basis 4 1) in
  check_bool "CX |01> = |01>" true (Cplx.close (Vec.get v 1) Cplx.one);
  (* CCX flips only |11x>. *)
  let v = Mat.apply Gates.ccx (Vec.basis 8 6) in
  check_bool "CCX |110> = |111>" true (Cplx.close (Vec.get v 7) Cplx.one);
  let v = Mat.apply Gates.ccx (Vec.basis 8 5) in
  check_bool "CCX |101> = |101>" true (Cplx.close (Vec.get v 5) Cplx.one);
  (* CSWAP with control set swaps targets. *)
  let v = Mat.apply Gates.cswap (Vec.basis 8 5) in
  check_bool "CSWAP |101> = |110>" true (Cplx.close (Vec.get v 6) Cplx.one);
  (* H H = I. *)
  mat_equal "H self-inverse" (Mat.identity 2) (Mat.mul Gates.h Gates.h)

let test_itoffoli_identity () =
  (* CCX = CS†(controls) · iToffoli, and the two commute. *)
  let csdg_controls = Mat.kron Gates.csdg Gates.id2 in
  mat_equal "CCX = CSdg·iToffoli" Gates.ccx (Mat.mul csdg_controls Gates.itoffoli);
  mat_equal "commuting decomposition" Gates.ccx (Mat.mul Gates.itoffoli csdg_controls)

let test_embed () =
  (* Embedding CX with reversed targets gives the control-on-lsb CX. *)
  let cx_rev = Embed.on_qubits ~n:2 ~targets:[ 1; 0 ] Gates.cx in
  let v = Mat.apply cx_rev (Vec.basis 4 1) in
  check_bool "reversed CX |01> = |11>" true (Cplx.close (Vec.get v 3) Cplx.one);
  (* Identity on spectators. *)
  let x_mid = Embed.on_qubits ~n:3 ~targets:[ 1 ] Gates.x in
  let v = Mat.apply x_mid (Vec.basis 8 0) in
  check_bool "X on wire 1 of |000>" true (Cplx.close (Vec.get v 2) Cplx.one);
  (* Mixed radix digits roundtrip. *)
  let dims = [| 2; 4; 3 |] in
  for idx = 0 to 23 do
    check_int "digit roundtrip" idx
      (Embed.index_of_digits ~dims (Embed.digits_of_index ~dims idx))
  done

(* The digit-by-digit lift: each matrix entry decodes both indices into
   mixed-radix digits and reads u where the spectator digits agree. The
   reference for [Embed.on_wires]'s offset fill. *)
let on_wires_by_digits ~dims ~targets u =
  let n = Array.length dims in
  let tgt = Array.of_list targets in
  let is_target = Array.make n false in
  Array.iter (fun t -> is_target.(t) <- true) tgt;
  let sub_index digits = Array.fold_left (fun acc t -> (acc * dims.(t)) + digits.(t)) 0 tgt in
  let total = Array.fold_left ( * ) 1 dims in
  Mat.init total total (fun i j ->
      let di = Embed.digits_of_index ~dims i and dj = Embed.digits_of_index ~dims j in
      let spectators_match = ref true in
      for w = 0 to n - 1 do
        if (not is_target.(w)) && di.(w) <> dj.(w) then spectators_match := false
      done;
      if not !spectators_match then Cplx.zero else Mat.get u (sub_index di) (sub_index dj))

(* Random registers of 1-4 wires of dimension 2-4, a random ordered subset
   of 1-3 targets and a random complex matrix (unitarity is not needed):
   the offset fill must equal the digit-by-digit lift to the last bit. *)
let test_embed_matches_digits () =
  let r = rng 331 in
  for case = 1 to 300 do
    let n = 1 + Rng.int r 4 in
    let dims = Array.init n (fun _ -> 2 + Rng.int r 3) in
    let wires = Array.init n Fun.id in
    Rng.shuffle_in_place r wires;
    let targets = Array.to_list (Array.sub wires 0 (1 + Rng.int r (min n 3))) in
    let g = List.fold_left (fun acc t -> acc * dims.(t)) 1 targets in
    let u = Mat.init g g (fun _ _ -> Cplx.c (Rng.gaussian r) (Rng.gaussian r)) in
    let fast = Embed.on_wires ~dims ~targets u
    and slow = on_wires_by_digits ~dims ~targets u in
    let same a b =
      Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b
    in
    if not (same fast.Mat.re slow.Mat.re && same fast.Mat.im slow.Mat.im) then
      Alcotest.failf "case %d: dims [%s], targets [%s]: the lifts differ" case
        (String.concat "; " (Array.to_list (Array.map string_of_int dims)))
        (String.concat "; " (List.map string_of_int targets))
  done

let test_qudit_ops () =
  let x4 = Qudit_ops.x_plus ~d:4 1 in
  assert_unitary "X+1" x4;
  let v = Mat.apply x4 (Vec.basis 4 3) in
  check_bool "X+1 wraps |3> to |0>" true (Cplx.close (Vec.get v 0) Cplx.one);
  let z4 = Qudit_ops.z_d ~d:4 in
  check_bool "Z_4 diag" true (Cplx.close (Mat.get z4 1 1) Cplx.i);
  (* The 16 generalized Paulis are unitary and pairwise distinct. *)
  let paulis = List.init 16 (fun k -> Qudit_ops.pauli ~d:4 (k / 4) (k mod 4)) in
  List.iteri (fun k p -> assert_unitary (Printf.sprintf "pauli %d" k) p) paulis;
  let distinct = ref 0 in
  List.iteri
    (fun i p ->
      List.iteri (fun j q -> if i < j && not (Mat.equal p q) then incr distinct) paulis)
    paulis;
  check_int "paulis distinct" (16 * 15 / 2) !distinct;
  (* |3>-controlled X: the Fig. 4 mixed-radix Toffoli equivalence. *)
  let three_ctl = Qudit_ops.level_controlled ~dc:4 ~control_level:3 Gates.x in
  (* Reorder: level_controlled puts the ququart most significant; the
     Ququart_gates convention has the bare qubit most significant. *)
  let reordered = Embed.on_wires ~dims:[| 2; 2; 2 |] ~targets:[ 1; 2; 0 ] three_ctl in
  mat_equal "3-controlled X = CCX^{01q}" Ququart_gates.three_controlled_x reordered

let test_encoding () =
  check_int "encode 00" 0 (Encoding.encode_index 0 0);
  check_int "encode 01" 1 (Encoding.encode_index 0 1);
  check_int "encode 10" 2 (Encoding.encode_index 1 0);
  check_int "encode 11" 3 (Encoding.encode_index 1 1);
  check_bool "decode roundtrip" true
    (List.for_all (fun l -> Encoding.encode_index (fst (Encoding.decode_index l)) (snd (Encoding.decode_index l)) = l)
       [ 0; 1; 2; 3 ]);
  List.iter
    (fun slot ->
      let e = Encoding.enc ~incoming_slot:slot in
      assert_unitary "ENC unitary" e;
      mat_equal "ENC† is the adjoint" (Mat.identity 16)
        (Mat.mul (Encoding.dec ~outgoing_slot:slot) e);
      (* Logical subspace action: |a⟩_src ⊗ |b⟩_dst → |0⟩ ⊗ |pair⟩. *)
      for a = 0 to 1 do
        for b = 0 to 1 do
          let input = Vec.basis 16 ((a * 4) + b) in
          let out = Mat.apply e input in
          let expected_level = if slot = 0 then (2 * a) + b else (2 * b) + a in
          check_bool
            (Printf.sprintf "enc slot %d maps a=%d b=%d" slot a b)
            true
            (Cplx.close (Vec.get out expected_level) Cplx.one)
        done
      done)
    [ 0; 1 ]

let test_ququart_gates () =
  (* Internal CX target slot 1 swaps |2⟩ and |3⟩. *)
  let cx1 = Ququart_gates.internal_cx ~target_slot:1 in
  let v = Mat.apply cx1 (Vec.basis 4 2) in
  check_bool "CX^1 |2> = |3>" true (Cplx.close (Vec.get v 3) Cplx.one);
  let cx0 = Ququart_gates.internal_cx ~target_slot:0 in
  let v = Mat.apply cx0 (Vec.basis 4 1) in
  check_bool "CX^0 |1> = |3>" true (Cplx.close (Vec.get v 3) Cplx.one);
  let v = Mat.apply Ququart_gates.internal_swap (Vec.basis 4 1) in
  check_bool "SWAP^in |1> = |2>" true (Cplx.close (Vec.get v 2) Cplx.one);
  (* Embedded single-qubit gates. *)
  mat_equal "U^0 = U ⊗ I" (Mat.kron Gates.h Gates.id2) (Ququart_gates.embedded_1q Gates.h ~slot:0);
  mat_equal "U^1 = I ⊗ U" (Mat.kron Gates.id2 Gates.h) (Ququart_gates.embedded_1q Gates.h ~slot:1);
  (* Mixed-radix CX^{q0}: qubit controls slot 0 of the ququart. On
     |1⟩_q ⊗ |0⟩ (= |100⟩ over 3 wires) the slot-0 qubit flips: |1⟩⊗|2⟩. *)
  let cxq0 = Ququart_gates.mr_2q Gates.cx ~first:Ququart_gates.Qubit ~second:(Slot 0) in
  assert_unitary "CX^{q0}" cxq0;
  let v = Mat.apply cxq0 (Vec.basis 8 4) in
  check_bool "CX^{q0} |1;0> = |1;2>" true (Cplx.close (Vec.get v 6) Cplx.one);
  (* CCX^{01q}: |3⟩-controlled X on the qubit. Basis: (q, s0, s1). *)
  let ccx01q = Ququart_gates.mr_3q Gates.ccx ~operands:[ Slot 0; Slot 1; Qubit ] in
  let v = Mat.apply ccx01q (Vec.basis 8 3) in
  (* (q=0, s0=1, s1=1) = index 3 → target flips → index 7. *)
  check_bool "CCX^{01q} flips qubit when ququart is |3>" true
    (Cplx.close (Vec.get v 7) Cplx.one);
  let v = Mat.apply ccx01q (Vec.basis 8 2) in
  check_bool "CCX^{01q} inert on |2>" true (Cplx.close (Vec.get v 2) Cplx.one);
  (* Full-ququart CX^{01}: control slot 0 of A, target slot 1 of B. *)
  let cx01 = Ququart_gates.fq_2q Gates.cx ~first:(A 0) ~second:(B 1) in
  assert_unitary "CX^{01}" cx01;
  (* A = |2⟩ (slot0 = 1), B = |0⟩ → B slot1 flips → B = |1⟩: index 8 → 9. *)
  let v = Mat.apply cx01 (Vec.basis 16 8) in
  check_bool "CX^{01} action" true (Cplx.close (Vec.get v 9) Cplx.one);
  (* Validation. *)
  (try
     ignore (Ququart_gates.mr_2q Gates.cx ~first:Ququart_gates.Qubit ~second:Qubit);
     Alcotest.fail "two bare operands accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Ququart_gates.fq_3q Gates.ccx ~operands:[ A 0; A 1; A 0 ]);
     Alcotest.fail "single-device full-ququart gate accepted"
   with Invalid_argument _ -> ())

let test_calibration () =
  let open Calibration in
  close "bare 1q" 35. bare_1q.duration_ns;
  close "U^1" 66. (embedded_1q ~slot:1).duration_ns;
  close "CX_2" 251. qubit_cx.duration_ns;
  close "iToffoli" 912. itoffoli.duration_ns;
  close "ENC" 608. enc.duration_ns;
  close "CX^{q0}" 880. (mr_cx ~control:Qubit ~target:(Slot 0)).duration_ns;
  close "CX^{0q}" 560. (mr_cx ~control:(Slot 0) ~target:Qubit).duration_ns;
  close "CCX^{01q}" 412. (mr_ccx ~target:Qubit).duration_ns;
  close "CCZ^{01q}" 264. mr_ccz.duration_ns;
  close "CCZ^{01,0}" 232. (fq_ccz ~lone_slot:0).duration_ns;
  close "CSWAP^{q01}" 444. (mr_cswap ~control:Qubit).duration_ns;
  close "CSWAP^{1,01}" 432. (fq_cswap_targets_together ~control_slot:1).duration_ns;
  close "fq swap symmetric" (fq_swap ~slot_a:0 ~slot_b:1).duration_ns
    (fq_swap ~slot_a:1 ~slot_b:0).duration_ns;
  (* Fidelity classes. *)
  close "single-device fidelity" 0.999 bare_1q.fidelity;
  close "two-device fidelity" 0.99 enc.fidelity;
  (* T1 scaling: 163.45 µs, 81.73 µs, 54.48 µs. *)
  close "T1 level 1" 163_450. (t1_of_level 1);
  close "T1 level 2" 81_725. (t1_of_level 2);
  close ~tol:1. "T1 level 3" 54_483. (t1_of_level 3);
  close "T1 scale knob" 40_862.5 (t1_of_level ~scale_high:2. 2);
  (* Table renderings cover every entry class. *)
  check_int "table1 groups" 4 (List.length table1);
  check_int "table2 groups" 2 (List.length table2)

let test_clifford () =
  check_int "1q Clifford group order" 24 (Array.length Clifford.one_qubit_group);
  Array.iteri
    (fun k c -> assert_unitary (Printf.sprintf "clifford %d" k) c)
    Clifford.one_qubit_group;
  let r = rng 5 in
  let c = Clifford.random_two_qubit r in
  assert_unitary "random 2q clifford" c;
  (* Clifford property: conjugating X⊗I lands back in the Pauli group (up to
     phase). *)
  let xi = Mat.kron Gates.x Gates.id2 in
  let conj = Mat.mul c (Mat.mul xi (Clifford.inverse c)) in
  let paulis =
    List.concat_map
      (fun p -> List.map (fun q -> Mat.kron p q) [ Gates.id2; Gates.x; Gates.y; Gates.z ])
      [ Gates.id2; Gates.x; Gates.y; Gates.z ]
  in
  check_bool "conjugation stays in Pauli group" true
    (List.exists (fun p -> Mat.equal_up_to_phase ~tol:1e-8 conj p) paulis)

let prop_mr_gates_unitary =
  qcheck ~count:20 "all mixed-radix liftings are unitary" QCheck.(int_range 0 3) (fun k ->
      let slot = k mod 2 in
      Mat.is_unitary (Ququart_gates.mr_2q Gates.cx ~first:Qubit ~second:(Slot slot))
      && Mat.is_unitary (Ququart_gates.mr_2q Gates.swap ~first:(Slot slot) ~second:Qubit)
      && Mat.is_unitary (Ququart_gates.mr_3q Gates.cswap ~operands:[ Qubit; Slot 0; Slot 1 ])
      && Mat.is_unitary (Ququart_gates.fq_3q Gates.ccz ~operands:[ A 0; A 1; B slot ]))

let suite =
  [ case "gate unitarity" test_gate_unitarity;
    case "gate semantics" test_gate_semantics;
    case "itoffoli identity" test_itoffoli_identity;
    case "embed" test_embed;
    case "embed matches the digit-by-digit lift" test_embed_matches_digits;
    case "qudit ops" test_qudit_ops;
    case "encoding" test_encoding;
    case "ququart gates" test_ququart_gates;
    case "calibration" test_calibration;
    case "clifford" test_clifford;
    prop_mr_gates_unitary ]
