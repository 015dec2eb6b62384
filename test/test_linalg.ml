open Waltz_linalg
open Test_util

let test_mat_basics () =
  let id3 = Mat.identity 3 in
  mat_equal "I*I = I" id3 (Mat.mul id3 id3);
  let a = Mat.of_real_rows [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  let b = Mat.of_real_rows [ [ 0.; 1. ]; [ 1.; 0. ] ] in
  mat_equal "A*X swaps columns" (Mat.of_real_rows [ [ 2.; 1. ]; [ 4.; 3. ] ]) (Mat.mul a b);
  mat_equal "add/sub roundtrip" a (Mat.sub (Mat.add a b) b);
  close "trace" 5. (Mat.trace a).Complex.re;
  mat_equal "transpose" (Mat.of_real_rows [ [ 1.; 3. ]; [ 2.; 4. ] ]) (Mat.transpose a)

let test_adjoint () =
  let m = Mat.of_rows Cplx.[ [ c 1. 2.; c 0. 1. ]; [ c 3. (-1.); c 0. 0. ] ] in
  let adj = Mat.adjoint m in
  check_bool "adjoint conjugates" true (Cplx.close (Mat.get adj 0 0) (Cplx.c 1. (-2.)));
  check_bool "adjoint transposes" true (Cplx.close (Mat.get adj 0 1) (Cplx.c 3. 1.));
  mat_equal "double adjoint" m (Mat.adjoint adj)

let test_kron () =
  let x = Mat.of_real_rows [ [ 0.; 1. ]; [ 1.; 0. ] ] in
  let i2 = Mat.identity 2 in
  let xi = Mat.kron x i2 in
  (* X ⊗ I maps |00⟩ → |10⟩, i.e. column 0 has a 1 in row 2. *)
  check_bool "kron structure" true (Cplx.close (Mat.get xi 2 0) Cplx.one);
  check_bool "kron zero" true (Cplx.close (Mat.get xi 1 0) Cplx.zero);
  mat_equal "kron of identities"
    (Mat.identity 6)
    (Mat.kron (Mat.identity 2) (Mat.identity 3))

let test_permutation () =
  let p = Mat.permutation 3 (function 0 -> 1 | 1 -> 2 | 2 -> 0 | _ -> assert false) in
  assert_unitary "permutation unitary" p;
  let v = Vec.basis 3 0 in
  let w = Mat.apply p v in
  check_bool "P|0> = |1>" true (Cplx.close (Vec.get w 1) Cplx.one);
  (try
     ignore (Mat.permutation 3 (fun _ -> 0));
     Alcotest.fail "non-bijection accepted"
   with Invalid_argument _ -> ())

let test_expm () =
  mat_equal "expm 0 = I" (Mat.identity 4) (Mat.expm (Mat.zeros 4 4));
  (* expm(-i θ X) = cos θ I - i sin θ X. *)
  let theta = 0.7 in
  let x = Mat.of_real_rows [ [ 0.; 1. ]; [ 1.; 0. ] ] in
  let arg = Mat.scale (Cplx.c 0. (-.theta)) x in
  let expected =
    Mat.add
      (Mat.scale (Cplx.re (cos theta)) (Mat.identity 2))
      (Mat.scale (Cplx.c 0. (-.sin theta)) x)
  in
  mat_equal ~tol:1e-12 "expm rotation" expected (Mat.expm arg);
  (* Scaling path: large argument. *)
  let big = Mat.scale (Cplx.c 0. (-40.)) x in
  assert_unitary ~tol:1e-9 "expm of large anti-hermitian is unitary" (Mat.expm big)

let test_process_fidelity () =
  let u = Mat.identity 4 in
  close "self fidelity" 1. (Mat.process_fidelity u u);
  let phase = Mat.scale (Cplx.exp_i 1.1) u in
  close "global phase invariant" 1. (Mat.process_fidelity u phase);
  check_bool "phase equality" true (Mat.equal_up_to_phase u phase);
  check_bool "distinct matrices" false
    (Mat.equal_up_to_phase u (Mat.permutation 4 (fun k -> (k + 1) mod 4)))

(* One NaN entry must fail every tolerance test: a NaN matrix is neither
   equal to itself nor unitary. *)
let test_nan_matrix () =
  let m = Mat.identity 2 in
  Mat.set m 1 1 (Cplx.c Float.nan 0.);
  check_bool "max_abs is NaN" true (Float.is_nan (Mat.max_abs m));
  check_bool "not equal to itself" false (Mat.equal m m);
  check_bool "not unitary" false (Mat.is_unitary m);
  check_bool "not equal up to phase" false (Mat.equal_up_to_phase m m)

let test_vec () =
  let v = Vec.of_complex_array [| Cplx.c 1. 0.; Cplx.c 0. 1. |] in
  close "norm2" 2. (Vec.norm2 v);
  let w = Vec.basis 2 0 in
  let s = 1. /. sqrt 2. in
  let normalized = Vec.of_complex_array [| Cplx.c s 0.; Cplx.c 0. s |] in
  close "overlap with basis state" 0.5 (Vec.overlap2 w normalized);
  let d = Vec.dot v v in
  close "self dot is norm2" 2. d.Complex.re;
  let g = Vec.gaussian (fun () -> Rng.gaussian (rng 3)) 16 in
  close "gaussian normalized" 1. (Vec.norm g) ~tol:1e-12

let test_rng () =
  let r = rng 42 in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let k = Rng.weighted_choice r [| 1.; 2.; 1. |] in
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "weighted choice middle heavy" true (counts.(1) > counts.(0) && counts.(1) > counts.(2));
  let r2 = rng 42 in
  check_int "deterministic" (Rng.int r2 1000) (Rng.int (rng 42) 1000)

let prop_unitary_products =
  qcheck ~count:30 "product of unitaries is unitary" QCheck.(int_range 0 10_000) (fun seed ->
      let r = rng seed in
      let gens =
        [| Mat.permutation 4 (fun k -> (k + 1) mod 4);
           Mat.kron (Mat.of_real_rows [ [ 0.; 1. ]; [ 1.; 0. ] ]) (Mat.identity 2);
           Mat.diag (Array.init 4 (fun k -> Cplx.exp_i (float_of_int k))) |]
      in
      let m = ref (Mat.identity 4) in
      for _ = 1 to 8 do
        m := Mat.mul gens.(Rng.int r 3) !m
      done;
      Mat.is_unitary ~tol:1e-8 !m)

let prop_expm_unitary =
  qcheck ~count:20 "expm of anti-hermitian is unitary" QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = rng seed in
      (* Random Hermitian H, then expm(-iH). *)
      let h = Mat.init 3 3 (fun _ _ -> Cplx.c (Rng.gaussian r) (Rng.gaussian r)) in
      let herm = Mat.scale (Cplx.re 0.5) (Mat.add h (Mat.adjoint h)) in
      Mat.is_unitary ~tol:1e-8 (Mat.expm (Mat.scale (Cplx.c 0. (-1.)) herm)))

let suite =
  [ case "mat basics" test_mat_basics;
    case "adjoint" test_adjoint;
    case "kron" test_kron;
    case "permutation" test_permutation;
    case "expm" test_expm;
    case "process fidelity" test_process_fidelity;
    case "NaN matrices fail every tolerance" test_nan_matrix;
    case "vec" test_vec;
    case "rng" test_rng;
    prop_unitary_products;
    prop_expm_unitary ]
