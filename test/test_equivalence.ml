(* The equivalence pass (EQ): one sparse basis replay at every paper width,
   cross-checked against the executor's lift on the dense register and
   against a dense reference on mutated programs. *)

open Waltz_linalg
open Waltz_circuit
open Waltz_core
open Waltz_sim
open Waltz_verify
open Test_util
module Bench = Waltz_benchmarks.Bench_circuits

let compile_grid sizes f =
  List.iter
    (fun family ->
      List.iter
        (fun size ->
          let circuit = Bench.by_total_qubits family size in
          List.iter
            (fun strategy ->
              let label =
                Printf.sprintf "%s-%d/%s" (Bench.family_name family) size strategy.Strategy.name
              in
              f label circuit (Compile.compile strategy circuit))
            Strategy.all)
        sizes)
    Bench.all_families

(* Logical basis index [x] placed along [map] in the dense register index. *)
let place (p : Physical.t) map x =
  let n = p.Physical.n_logical in
  let idx = ref 0 in
  Array.iteri
    (fun q w ->
      if (x lsr (n - 1 - q)) land 1 = 1 then idx := !idx lor (1 lsl Equivalence.wire_bit p w))
    map;
  !idx

(* Every logical basis input placed along [initial_map], in one normalized
   Gaussian superposition: both replays are linear, so a column on which
   they differ shows with probability 1. *)
let superposed_input (p : Physical.t) seed =
  let n = p.Physical.n_logical in
  let r = rng seed in
  let psi = Vec.gaussian (fun () -> Rng.gaussian r) (1 lsl n) in
  Vec.normalize_in_place psi;
  let dims = Array.make p.Physical.device_count p.Physical.device_dim in
  let v = Vec.create (Array.fold_left ( * ) 1 dims) in
  let sparse = Hashtbl.create (1 lsl n) in
  for x = 0 to (1 lsl n) - 1 do
    let idx = place p p.Physical.initial_map x in
    Vec.set v idx (Vec.get psi x);
    Hashtbl.replace sparse idx (Vec.get psi x)
  done;
  (psi, sparse, State.of_vec ~dims v)

let lift_step (p : Physical.t) state (op : Physical.op) =
  let devices, lifted = Executor.lift_gate ~device_dim:p.Physical.device_dim op in
  State.apply state ~targets:devices lifted

(* ---- paper widths ---- *)

let test_paper_widths () = compile_grid (List.init 17 (fun i -> 5 + i)) assert_equivalent

(* ---- the lift cross-check ---- *)

(* After every op, the sparse program step (the op's own gate on its
   (device, slot) bits) must equal [State.apply] of the op's lifted matrix
   on the dense register, entry by entry. *)
let test_lift_cross_check () =
  compile_grid [ 5; 6; 7 ] (fun label _ p ->
      let _, sparse, dense = superposed_input p 7 in
      let v = State.amplitudes dense in
      ignore
        (List.fold_left
           (fun (i, sparse) (op : Physical.op) ->
             let sparse =
               Equivalence.apply
                 (List.map (Equivalence.wire_bit p) op.Physical.targets)
                 op.Physical.gate sparse
             in
             lift_step p dense op;
             let differs a b = not (Cplx.norm (Cplx.( -: ) a b) <= 1e-12) in
             Hashtbl.iter
               (fun idx a ->
                 if idx >= Vec.dim v || differs a (Vec.get v idx) then
                   Alcotest.failf "%s: op %d (%s) differs at index %d" label i
                     op.Physical.label idx)
               sparse;
             for idx = 0 to Vec.dim v - 1 do
               let d = Vec.get v idx in
               if (not (Hashtbl.mem sparse idx)) && differs d Cplx.zero then
                 Alcotest.failf "%s: op %d (%s) misses index %d" label i op.Physical.label idx
             done;
             (i + 1, sparse))
           (0, sparse) p.Physical.ops))

(* ---- the mutation suite ---- *)

let is_swap (op : Physical.op) = String.starts_with ~prefix:"SWAP" op.Physical.label

let device_set (op : Physical.op) =
  List.sort_uniq compare
    (List.map (fun (pt : Physical.device_part) -> pt.Physical.device) op.Physical.parts)

let with_ops (p : Physical.t) ops = { p with Physical.ops }

let find_index pred ops =
  let rec go i = function
    | [] -> None
    | x :: rest -> if pred x then Some i else go (i + 1) rest
  in
  go 0 ops

let replace_nth ops i f = List.mapi (fun j op -> if j = i then f op else op) ops

(* Each operator returns [None] when the program offers no site for it. *)
let drop_multi_device (p : Physical.t) =
  let site op = List.length (device_set op) >= 2 && not (is_swap op) in
  let sites =
    List.filter_map Fun.id
      (List.mapi (fun i op -> if site op then Some i else None) p.Physical.ops)
  in
  match sites with
  | [] -> None
  | _ ->
    let victim = List.nth sites (List.length sites / 2) in
    Some (with_ops p (List.filteri (fun i _ -> i <> victim) p.Physical.ops))

let transpose_final (p : Physical.t) =
  let n = p.Physical.n_logical in
  if n < 2 then None
  else begin
    let final_map = Array.copy p.Physical.final_map in
    final_map.(0) <- p.Physical.final_map.(n - 1);
    final_map.(n - 1) <- p.Physical.final_map.(0);
    Some { (with_ops p p.Physical.ops) with Physical.final_map }
  end

let negate_diagonal (p : Physical.t) =
  let non_identity_diagonal (op : Physical.op) =
    Mat.diagonal_entries op.Physical.gate <> None
    && not (Mat.equal op.Physical.gate (Mat.identity op.Physical.gate.Mat.rows))
  in
  Option.map
    (fun i ->
      with_ops p
        (replace_nth p.Physical.ops i (fun op ->
             let g = Mat.copy op.Physical.gate in
             let last = g.Mat.rows - 1 in
             Mat.set g last last (Cplx.neg (Mat.get g last last));
             { op with Physical.gate = g })))
    (find_index non_identity_diagonal p.Physical.ops)

(* A slot-0 ENC is a SWAP and its own inverse, so the site is the first
   ENC that is not. *)
let invert_enc (p : Physical.t) =
  let site (op : Physical.op) =
    op.Physical.label = "ENC"
    && not (Mat.equal op.Physical.gate (Mat.adjoint op.Physical.gate))
  in
  Option.map
    (fun i ->
      with_ops p
        (replace_nth p.Physical.ops i (fun op ->
             { op with Physical.gate = Mat.adjoint op.Physical.gate })))
    (find_index site p.Physical.ops)

let swap_adjacent (p : Physical.t) =
  let ops = Array.of_list p.Physical.ops in
  let shares i =
    List.exists (fun d -> List.mem d (device_set ops.(i + 1))) (device_set ops.(i))
  in
  Option.map
    (fun i ->
      let a = ops.(i) in
      ops.(i) <- ops.(i + 1);
      ops.(i + 1) <- a;
      with_ops p (Array.to_list ops))
    (find_index shares (List.init (max 0 (Array.length ops - 1)) Fun.id))

let caught_by_eq circuit p =
  let rules =
    List.map (fun (d : Diagnostic.t) -> d.Diagnostic.rule) (Equivalence.check circuit p)
  in
  if List.mem "EQ00" rules then
    Alcotest.failf "EQ00 on a mutant: %s" (String.concat "," rules);
  List.mem "EQ01" rules || List.mem "EQ02" rules

(* The dense reference: the lift replay of a Gaussian superposition of
   every logical basis input, read out along [final_map], against
   [Circuit.to_unitary]. Equivalent iff no weight leaves the read-out
   slots and the overlap is 1. *)
let dense_equivalent circuit (p : Physical.t) =
  let psi, _, dense = superposed_input p 11 in
  List.iter (lift_step p dense) p.Physical.ops;
  let v = State.amplitudes dense in
  let actual =
    Vec.of_complex_array
      (Array.init (Vec.dim psi) (fun y -> Vec.get v (place p p.Physical.final_map y)))
  in
  let expected = Mat.apply (Circuit.to_unitary circuit) psi in
  Float.abs (Vec.norm2 actual -. 1.) <= 1e-6
  && Float.abs (Vec.overlap2 expected actual -. 1.) <= 1e-6

let must_catch =
  [ ("drop", drop_multi_device); ("transpose", transpose_final); ("negate", negate_diagonal) ]

let test_mutants_caught () =
  compile_grid [ 5; 13; 21 ] (fun label circuit p ->
      List.iter
        (fun (name, mutate) ->
          match mutate p with
          | None -> ()
          | Some m ->
            if not (caught_by_eq circuit m) then
              Alcotest.failf "%s: the %s mutant passed EQ" label name)
        must_catch)

(* Some adjacent swaps commute, so both verdicts must occur. *)
let test_mutants_match_dense () =
  let caught = ref 0 and equivalent = ref 0 in
  compile_grid [ 5; 6 ] (fun label circuit p ->
      List.iter
        (fun (name, mutate) ->
          match mutate p with
          | None -> ()
          | Some m ->
            let eq = caught_by_eq circuit m and dense = not (dense_equivalent circuit m) in
            incr (if eq then caught else equivalent);
            if eq <> dense then
              Alcotest.failf "%s: the %s mutant: EQ says %s, the dense reference %s" label name
                (if eq then "caught" else "equivalent")
                (if dense then "caught" else "equivalent"))
        (must_catch @ [ ("invert-enc", invert_enc); ("swap-adjacent", swap_adjacent) ]));
  check_bool "caught mutants" true (!caught > 100);
  check_bool "equivalent mutants" true (!equivalent > 10)

let suite =
  [ case "no EQ00 at paper widths" test_paper_widths;
    case "lift cross-check" test_lift_cross_check;
    case "mutants caught at 5, 13, 21 qubits" test_mutants_caught;
    case "mutant verdicts match the dense reference" test_mutants_match_dense ]
