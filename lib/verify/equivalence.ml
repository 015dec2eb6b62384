open Waltz_linalg
open Waltz_circuit
open Waltz_core

(* Semantic equivalence (pass 6) by sparse basis replay. Every pulse that
   spans devices is a permutation with phases, so a basis input stays
   sparse through a compiled program. The circuit side applies each gate's
   unitary on its qubit bits, the program side each op's own gate on its
   (device, slot) bits, never the executor's lift. Each input checks one
   column of the unitary; one global phase shared by all inputs pins the
   relative phases between columns. *)

type state = (int, Complex.t) Hashtbl.t

let support_cap = 4096
let tol = 1e-6

let wire_bit (p : Physical.t) (d, s) =
  if p.Physical.device_dim = 4 then (2 * (p.Physical.device_count - 1 - d)) + 1 - s
  else p.Physical.device_count - 1 - d

(* The bits each row of [m] sets are worked out once per matrix; the
   returned function feeds every amplitude into the nonzero entries of its
   column. Amplitudes with |a|² < 1e-24 are dropped, so Hadamard pairs
   leave no zeros behind ([<] keeps a NaN, which must fail). *)
let apply bits (m : Mat.t) =
  let bits = Array.of_list bits in
  let k = Array.length bits in
  let spread =
    Array.init (1 lsl k) (fun row ->
        Array.fold_left ( lor ) 0
          (Array.mapi (fun j b -> ((row lsr (k - 1 - j)) land 1) lsl b) bits))
  in
  let keep = lnot spread.((1 lsl k) - 1) in
  fun (state : state) ->
    let out = Hashtbl.create (2 * Hashtbl.length state) in
    Hashtbl.iter
      (fun idx a ->
        let col = Array.fold_left (fun acc b -> (2 * acc) lor ((idx lsr b) land 1)) 0 bits in
        Array.iteri
          (fun row row_bits ->
            let j = (row * m.Mat.cols) + col in
            let e = { Complex.re = m.Mat.re.(j); im = m.Mat.im.(j) } in
            if e.Complex.re <> 0. || e.Complex.im <> 0. then begin
              let t = (idx land keep) lor row_bits in
              let b = Option.value ~default:Complex.zero (Hashtbl.find_opt out t) in
              Hashtbl.replace out t (Complex.add b (Complex.mul e a))
            end)
          spread)
      state;
    Hashtbl.filter_map_inplace
      (fun _ a -> if Complex.norm2 a < 1e-24 then None else Some a)
      out;
    out

exception Skip of string

(* Every basis input up to 8 qubits; above, all-zeros, all-ones and 30
   inputs whose bits are 1 with probability 0.8, so that multi-controlled
   gates fire. *)
let inputs n =
  let r = Rng.make ~seed:2023 in
  let bit x q = if Rng.float r 1. < 0.8 then x lor (1 lsl q) else x in
  let draw _ = List.fold_left bit 0 (List.init n Fun.id) in
  if n <= 8 then List.init (1 lsl n) Fun.id else 0 :: ((1 lsl n) - 1) :: List.init 30 draw

let check ?(max_qubits = max_int) (circuit : Circuit.t) (p : Physical.t) =
  let n = p.Physical.n_logical in
  let bits = (if p.Physical.device_dim = 4 then 2 else 1) * p.Physical.device_count in
  let replay steps x =
    let step st f =
      let st = f st in
      if Hashtbl.length st > support_cap then
        raise (Skip (Printf.sprintf "sparse support passed %d amplitudes" support_cap));
      st
    in
    List.fold_left step (Hashtbl.of_seq (Seq.return (x, Complex.one))) steps
  in
  (* Logical index [x] placed along [map]: qubit q is bit n-1-q of [x]. *)
  let place map x =
    Array.fold_left ( lor ) 0
      (Array.mapi (fun q w -> ((x lsr (n - 1 - q)) land 1) lsl wire_bit p w) map)
  in
  try
    if circuit.Circuit.n <> n then raise (Skip "qubit count mismatch (see CIR04)");
    if n > max_qubits then
      raise (Skip (Printf.sprintf "%d qubits exceeds the %d-qubit bound" n max_qubits));
    if bits > 62 then
      raise (Skip (Printf.sprintf "the register needs %d bits, more than 62" bits));
    let gate (g : Gate.t) =
      apply (List.map (fun q -> n - 1 - q) g.Gate.qubits) (Gate.unitary g.Gate.kind)
    in
    let op (o : Physical.op) = apply (List.map (wire_bit p) o.Physical.targets) o.Physical.gate in
    let gates = List.map gate circuit.Circuit.gates and ops = List.map op p.Physical.ops in
    let empty = lnot (place p.Physical.final_map ((1 lsl n) - 1)) in
    let phase0 = ref None in
    (* Every comparison is a negated [<=], so that NaN fails. *)
    let compare x =
      let expected = replay gates x in
      let actual = replay ops (place p.Physical.initial_map x) in
      let leaked, norm2 =
        Hashtbl.fold
          (fun i a (leaked, norm2) ->
            let w = Complex.norm2 a in
            ((if i land empty <> 0 then leaked +. w else leaked), norm2 +. w))
          actual (0., 0.)
      in
      let overlap =
        Hashtbl.fold
          (fun y e acc ->
            match Hashtbl.find_opt actual (place p.Physical.final_map y) with
            | Some a -> Complex.add acc (Complex.mul (Complex.conj e) a)
            | None -> acc)
          expected Complex.zero
      in
      (* |actual - p0 expected|², where |expected| = 1 and the first matching
         input fixes the global phase p0. *)
      let unit = Complex.div overlap (Complex.polar (Complex.norm overlap) 0.) in
      let p0 = Option.value ~default:unit !phase0 in
      let dist2 = norm2 +. 1. -. (2. *. (Complex.mul (Complex.conj p0) overlap).Complex.re) in
      let input = String.init n (fun q -> if (x lsr (n - 1 - q)) land 1 = 1 then '1' else '0') in
      if not (leaked <= tol) then
        Some (input, "EQ02", Printf.sprintf "%.2e of the state ends on empty slots" leaked)
      else if not (dist2 <= tol) then
        Some (input, "EQ01", Printf.sprintf "squared distance %.2e from the circuit's output" dist2)
      else begin
        phase0 := Some p0;
        None
      end
    in
    let xs = inputs n in
    match List.filter_map compare xs with
    | [] -> []
    | (input, rule, what) :: _ as failures ->
      [ Diagnostic.error rule
          (Printf.sprintf "input |%s>: %s (%d of %d inputs fail)" input what
             (List.length failures) (List.length xs)) ]
  with Skip reason -> [ Diagnostic.info "EQ00" ("equivalence check skipped: " ^ reason) ]
