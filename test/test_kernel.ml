(* Plan-time kernel classification and specialized apply paths: every class,
   applied as a one-lane block, must agree with the reference
   gather/multiply/scatter path (State.apply) to 1e-12, and
   the structure tests must be exact — a matrix that is *almost* diagonal or
   *almost* monomial has to take a dense path, not a specialized one. *)
open Waltz_linalg
open Waltz_sim
open Test_util

let rand_cplx r = Cplx.c (Rng.gaussian r) (Rng.gaussian r)

let random_dense r g = Mat.init g g (fun _ _ -> rand_cplx r)

let random_diag r g =
  Mat.diag (Array.init g (fun _ -> Cplx.exp_i (Rng.float r 6.28)))

let random_monomial r g =
  let perm = Array.init g Fun.id in
  Rng.shuffle_in_place r perm;
  let m = Mat.zeros g g in
  for j = 0 to g - 1 do
    Mat.set m perm.(j) j (Cplx.exp_i (Rng.float r 6.28))
  done;
  m

(* Identity outside a random subset of basis states, random block inside. *)
let random_controlled r g =
  let k = 2 + Rng.int r (g - 2) in
  let idx = Array.init g Fun.id in
  Rng.shuffle_in_place r idx;
  let active = Array.sub idx 0 k in
  let m = Mat.identity g in
  Array.iter
    (fun i -> Array.iter (fun j -> Mat.set m i j (rand_cplx r)) active)
    active;
  m

let max_abs_diff a b =
  let d = ref 0. in
  for i = 0 to Vec.dim a - 1 do
    d := Float.max !d (Float.abs (a.Vec.re.(i) -. b.Vec.re.(i)));
    d := Float.max !d (Float.abs (a.Vec.im.(i) -. b.Vec.im.(i)))
  done;
  !d

(* One agreement check: a one-lane block application on a raw vector (the
   [cap = 1] layout is the vector's own) vs the reference State.apply on
   the same random state. *)
let check_placed r ~dims ~targets kernel m =
  let state = State.random r ~dims in
  let reference = State.of_vec ~dims (State.amplitudes state) in
  let v = Vec.copy (State.amplitudes state) in
  Kernel.apply_block kernel v.Vec.re v.Vec.im ~cap:1 ~live:1;
  State.apply reference ~targets m;
  let diff = max_abs_diff v (State.amplitudes reference) in
  if diff > 1e-12 then
    Alcotest.failf "kernel %s disagrees with State.apply by %g"
      (Kernel.class_name kernel) diff

let check_agrees ?expect_class r ~dims ~targets m =
  let kernel = Kernel.compile ~dims ~targets m in
  (match expect_class with
  | Some cls -> Alcotest.(check string) "kernel class" cls (Kernel.class_name kernel)
  | None -> ());
  check_placed r ~dims ~targets kernel m

(* The same matrix behind an extra leading qubit wire must take the same
   class and agree with State.apply there too. *)
let check_wider r ~dims ~targets m =
  let expect_class = Kernel.class_name (Kernel.compile ~dims ~targets m) in
  check_agrees r ~expect_class ~dims:(Array.append [| 2 |] dims)
    ~targets:(List.map succ targets) m

(* Every (dims, targets) shape the executor produces: 1 to 3 targets over
   qubit, ququart and mixed registers, including reordered target lists
   (control below target) and non-adjacent wires. *)
let shapes =
  [ ([| 2; 2; 2 |], [ 1 ]);
    ([| 2; 2; 2 |], [ 0; 2 ]);
    ([| 2; 2; 2 |], [ 2; 0 ]);
    ([| 2; 2; 2; 2 |], [ 1; 3; 0 ]);
    ([| 4; 4 |], [ 0 ]);
    ([| 4; 4 |], [ 1; 0 ]);
    ([| 4; 4; 4 |], [ 0; 2 ]);
    ([| 4; 4; 4 |], [ 2; 1; 0 ]);
    ([| 2; 4; 2 |], [ 1 ]);
    ([| 2; 4; 2 |], [ 0; 1 ]);
    ([| 2; 4; 2 |], [ 2; 1; 0 ]) ]

let gate_dim dims targets =
  List.fold_left (fun acc w -> acc * dims.(w)) 1 targets

let test_random_agreement () =
  let r = rng 402 in
  List.iter
    (fun (dims, targets) ->
      let g = gate_dim dims targets in
      let both ?expect_class m =
        check_agrees r ~dims ~targets ?expect_class m;
        check_wider r ~dims ~targets m
      in
      for _ = 1 to 5 do
        both ~expect_class:"diagonal" (random_diag r g);
        both (random_monomial r g);
        both (random_dense r g)
      done)
    shapes

let test_monomial_classified () =
  let r = rng 403 in
  (* A shuffled permutation can be diagonal by chance; pin a fixed-point-free
     one so the class check is deterministic. *)
  let g = 8 in
  let m = Mat.permutation g (fun i -> (i + 3) mod g) in
  check_agrees r ~dims:[| 2; 2; 2 |] ~targets:[ 0; 1; 2 ] ~expect_class:"monomial" m

(* A matrix that is identity outside a block has no class of its own: it
   runs the dense kernel for its wire count. *)
let test_controlled_block () =
  let r = rng 404 in
  List.iter
    (fun (dims, targets) ->
      let g = gate_dim dims targets in
      let expect_class =
        match targets with [ _ ] -> "single_wire" | [ _; _ ] -> "two_wire" | _ -> "generic"
      in
      if g >= 4 then
        for _ = 1 to 5 do
          check_agrees r ~dims ~targets ~expect_class (random_controlled r g)
        done)
    shapes

let test_dense_iteration_classes () =
  let r = rng 405 in
  check_agrees r ~dims:[| 2; 4; 2 |] ~targets:[ 1 ] ~expect_class:"single_wire"
    (random_dense r 4);
  check_agrees r ~dims:[| 2; 4; 2 |] ~targets:[ 0; 2 ] ~expect_class:"two_wire"
    (random_dense r 4);
  check_agrees r ~dims:[| 2; 2; 2; 2 |] ~targets:[ 0; 1; 3 ] ~expect_class:"generic"
    (random_dense r 8)

(* Adversarial near-misses: an entry of 1e-13 off the diagonal (or off the
   permutation support) is far below any reasonable tolerance, but the
   structure tests are exact — these must NOT take the phase-table or
   permutation path, and must still agree with the reference. *)
let test_near_diagonal_not_misclassified () =
  let r = rng 406 in
  List.iter
    (fun (dims, targets) ->
      let g = gate_dim dims targets in
      let m = random_diag r g in
      Mat.set m (g - 1) 0 (Cplx.c 1e-13 0.);
      let kernel = Kernel.compile ~dims ~targets m in
      check_bool "near-diagonal is not diagonal" false
        (Kernel.class_name kernel = "diagonal");
      check_bool "near-diagonal is not monomial" false
        (Kernel.class_name kernel = "monomial");
      check_agrees r ~dims ~targets m)
    shapes

let test_near_monomial_not_misclassified () =
  let r = rng 407 in
  List.iter
    (fun (dims, targets) ->
      let g = gate_dim dims targets in
      let m = random_monomial r g in
      (* Perturb an entry that the permutation leaves at exactly zero. *)
      let nonzero_col = ref 0 in
      for j = 0 to g - 1 do
        if Cplx.norm (Mat.get m 0 j) > 0. then nonzero_col := j
      done;
      Mat.set m 0 ((!nonzero_col + 1) mod g) (Cplx.c 0. 1e-13);
      let kernel = Kernel.compile ~dims ~targets m in
      check_bool "near-monomial is not monomial" false
        (Kernel.class_name kernel = "monomial");
      check_bool "near-monomial is not diagonal" false
        (Kernel.class_name kernel = "diagonal");
      check_agrees r ~dims ~targets m)
    shapes

(* A monomial with a duplicated column is not a permutation even though
   every row has exactly one nonzero — the bijection check must reject it. *)
let test_non_bijective_rejected () =
  let g = 4 in
  let m = Mat.zeros g g in
  for i = 0 to g - 1 do
    Mat.set m i 0 Cplx.one
  done;
  let kernel = Kernel.compile ~dims:[| 4 |] ~targets:[ 0 ] m in
  check_bool "rank-1 matrix is not monomial" false
    (Kernel.class_name kernel = "monomial")

let test_compile_validation () =
  let m = Mat.identity 4 in
  Alcotest.check_raises "wire out of range"
    (Invalid_argument "Kernel.compile: wire out of range") (fun () ->
      ignore (Kernel.compile ~dims:[| 2; 2 |] ~targets:[ 0; 5 ] m));
  Alcotest.check_raises "duplicate targets"
    (Invalid_argument "Kernel.compile: duplicate targets") (fun () ->
      ignore (Kernel.compile ~dims:[| 2; 2 |] ~targets:[ 0; 0 ] m));
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Kernel.compile: matrix dimension mismatch") (fun () ->
      ignore (Kernel.compile ~dims:[| 2; 2 |] ~targets:[ 0 ] m))

let test_targets_accessor () =
  let kernel = Kernel.compile ~dims:[| 2; 4; 2 |] ~targets:[ 2; 0 ] (Mat.identity 4) in
  Alcotest.(check (list int)) "targets round-trip" [ 2; 0 ] (Kernel.targets kernel)

(* The footprint is the whole kernel's payload: the target and offset
   tables, the odometer tables of a spectator walk, and the entries — two
   floats per diagonal entry, an int and two floats per permuted entry,
   two floats per dense matrix entry. *)
let test_footprint_counts_entries () =
  let r = rng 408 in
  List.iter
    (fun (dims, targets) ->
      let g = gate_dim dims targets and nt = List.length targets in
      let odometer = if nt >= 3 then 2 * (Array.length dims - nt) else 0 in
      let tables = nt + g + odometer in
      List.iter
        (fun (what, m, entries) ->
          check_int
            (Printf.sprintf "%s on %d target(s), g = %d" what nt g)
            (8 * (tables + entries))
            (Kernel.footprint_bytes (Kernel.compile ~dims ~targets m)))
        [ ("diagonal", random_diag r g, 2 * g);
          ("monomial", Mat.permutation g (fun i -> (i + 1) mod g), 3 * g);
          ("dense", random_dense r g, 2 * g * g) ])
    shapes

let suite =
  [ case "random agreement, all shapes and classes" test_random_agreement;
    case "fixed-point-free permutation is monomial" test_monomial_classified;
    case "controlled blocks agree and classify" test_controlled_block;
    case "dense iteration shapes classify by wire count" test_dense_iteration_classes;
    case "near-diagonal never takes the phase path" test_near_diagonal_not_misclassified;
    case "near-monomial never takes the permutation path" test_near_monomial_not_misclassified;
    case "non-bijective one-per-row matrix rejected" test_non_bijective_rejected;
    case "compile validates targets" test_compile_validation;
    case "targets accessor preserves order" test_targets_accessor;
    case "footprint counts the whole kernel" test_footprint_counts_entries ]
