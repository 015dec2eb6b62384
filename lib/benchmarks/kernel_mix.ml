open Waltz_linalg
open Waltz_qudit
open Waltz_core

let program () =
  let hh = Mat.kron Gates.h Gates.h in
  let ctrl16 =
    let m = Mat.identity 16 in
    for i = 0 to 3 do
      for j = 0 to 3 do
        Mat.set m (12 + i) (12 + j) (Mat.get hh i j)
      done
    done;
    m
  in
  let part d = { Physical.device = d; noise = Physical.P4; occ_before = 2; occ_after = 2 } in
  let op label devices targets gate =
    { Physical.label;
      parts = List.map part devices;
      targets;
      gate;
      duration_ns = 50.;
      fidelity = 0.999;
      touches_ww = true }
  in
  let ops =
    [ op "mix-slot" [ 1 ] [ (1, 0) ] (Gates.ry 0.7);
      op "mix-pair" [ 2 ] [ (2, 0); (2, 1) ] hh;
      op "mix-diag" [ 0; 1 ]
        [ (0, 0); (0, 1); (1, 0); (1, 1) ]
        (Mat.diag (Array.init 16 (fun i -> Cplx.exp_i (0.1 *. float_of_int i))));
      op "mix-dense" [ 0; 2 ] [ (0, 0); (0, 1); (2, 0); (2, 1) ] (Mat.kron hh hh);
      op "mix-cblock" [ 1; 2 ] [ (1, 0); (1, 1); (2, 0); (2, 1) ] ctrl16;
      op "mix-perm" [ 0; 1 ]
        [ (0, 0); (0, 1); (1, 0); (1, 1) ]
        (Mat.permutation 16 (fun i -> (i + 5) mod 16));
      op "mix-gen" [ 0; 1; 2 ] [ (0, 0); (1, 0); (2, 0) ] (Mat.kron hh Gates.h) ]
  in
  let map = [| (0, 0); (0, 1); (1, 0); (1, 1); (2, 0); (2, 1) |] in
  { Physical.strategy = Strategy.full_ququart;
    n_logical = 6;
    device_count = 3;
    device_dim = 4;
    ops;
    initial_map = map;
    final_map = map;
    schedule_memo = None;
    kernel_memo = None }
