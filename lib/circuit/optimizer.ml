type stats = { removed : int; fused : int }

let self_inverse (k : Gate.kind) =
  match k with
  | Gate.X | Gate.Y | Gate.Z | Gate.H | Gate.Cx | Gate.Cz | Gate.Swap | Gate.Ccx
  | Gate.Ccz | Gate.Cswap | Gate.Cccx | Gate.Cccz -> true
  | _ -> false

let two_pi = 2. *. Float.pi

let norm_angle theta =
  let t = Float.rem theta two_pi in
  if t > Float.pi then t -. two_pi else if t < -.Float.pi then t +. two_pi else t

let is_zero_angle theta = Float.abs (norm_angle theta) < 1e-12

(* The sum of two angles, in (-π, π]. Past [max_float], each angle is
   first reduced through [sin] and [cos], whose argument reduction is
   exact; a [Float.rem] by the rounded 2π is not, at that size. *)
let sum_angle ta tb =
  let sum = ta +. tb in
  if Float.is_finite sum then norm_angle sum
  else
    let reduce t = Float.atan2 (sin t) (cos t) in
    norm_angle (reduce ta +. reduce tb)

(* Do two adjacent gates on identical operands cancel? *)
let cancels (a : Gate.kind) (b : Gate.kind) =
  match (a, b) with
  | _ when a = b && self_inverse a -> true
  | Gate.S, Gate.Sdg | Gate.Sdg, Gate.S | Gate.T, Gate.Tdg | Gate.Tdg, Gate.T -> true
  | Gate.Rx ta, Gate.Rx tb | Gate.Ry ta, Gate.Ry tb | Gate.Rz ta, Gate.Rz tb
  | Gate.Phase ta, Gate.Phase tb ->
    Float.abs (sum_angle ta tb) < 1e-12
  | _ -> false

(* Fuse two adjacent rotations of the same axis into one. *)
let fuse (a : Gate.kind) (b : Gate.kind) =
  match (a, b) with
  | Gate.Rx ta, Gate.Rx tb -> Some (Gate.Rx (sum_angle ta tb))
  | Gate.Ry ta, Gate.Ry tb -> Some (Gate.Ry (sum_angle ta tb))
  | Gate.Rz ta, Gate.Rz tb -> Some (Gate.Rz (sum_angle ta tb))
  | Gate.Phase ta, Gate.Phase tb -> Some (Gate.Phase (sum_angle ta tb))
  | Gate.S, Gate.S -> Some Gate.Z
  | Gate.T, Gate.T -> Some Gate.S
  | Gate.Tdg, Gate.Tdg -> Some Gate.Sdg
  | _ -> None

let is_identity_rotation (k : Gate.kind) =
  match k with
  | Gate.Rx t | Gate.Ry t | Gate.Rz t | Gate.Phase t -> is_zero_angle t
  | _ -> false

(* One pass over the circuit with a per-qubit frontier: [frontier.(q)] is the
   index (into [kept], a growable array of gate options) of the last
   surviving gate touching q. *)
let pass circuit =
  let n = circuit.Circuit.n in
  let kept : Gate.t option array ref = ref (Array.make 16 None) in
  let kept_len = ref 0 in
  let frontier = Array.make n (-1) in
  let removed = ref 0 and fused = ref 0 in
  let push g =
    if !kept_len = Array.length !kept then begin
      let bigger = Array.make (2 * !kept_len) None in
      Array.blit !kept 0 bigger 0 !kept_len;
      kept := bigger
    end;
    !kept.(!kept_len) <- Some g;
    List.iter (fun q -> frontier.(q) <- !kept_len) g.Gate.qubits;
    incr kept_len
  in
  let predecessor (g : Gate.t) =
    (* The unique surviving predecessor shared by *all* operands, if any. *)
    match g.Gate.qubits with
    | [] -> None
    | q0 :: rest ->
      let idx = frontier.(q0) in
      if idx < 0 || List.exists (fun q -> frontier.(q) <> idx) rest then None
      else begin
        match !kept.(idx) with
        | Some p when p.Gate.qubits = g.Gate.qubits -> Some (idx, p)
        | _ -> None
      end
  in
  let drop idx (p : Gate.t) =
    !kept.(idx) <- None;
    (* Rewind the frontier of the dropped gate's qubits: scan backwards for
       the previous surviving gate touching each. *)
    List.iter
      (fun q ->
        let rec back i =
          if i < 0 then frontier.(q) <- -1
          else
            match !kept.(i) with
            | Some g when List.mem q g.Gate.qubits -> frontier.(q) <- i
            | _ -> back (i - 1)
        in
        back (idx - 1))
      p.Gate.qubits
  in
  List.iter
    (fun (g : Gate.t) ->
      if is_identity_rotation g.Gate.kind then incr removed
      else
        match predecessor g with
        | Some (idx, p) when cancels p.Gate.kind g.Gate.kind ->
          drop idx p;
          removed := !removed + 2
        | Some (idx, p) -> begin
          match fuse p.Gate.kind g.Gate.kind with
          | Some merged ->
            drop idx p;
            incr fused;
            if not (is_identity_rotation merged) then push (Gate.make merged g.Gate.qubits)
          | None -> push g
        end
        | None -> push g)
    circuit.Circuit.gates;
  let gates =
    List.filter_map Fun.id (Array.to_list (Array.sub !kept 0 !kept_len))
  in
  (Circuit.of_gates ~n gates, { removed = !removed; fused = !fused })

let simplify_with_stats circuit =
  let rec go c acc =
    let c', s = pass c in
    let acc = { removed = acc.removed + s.removed; fused = acc.fused + s.fused } in
    if s.removed = 0 && s.fused = 0 then (c', acc) else go c' acc
  in
  go circuit { removed = 0; fused = 0 }

let simplify circuit = fst (simplify_with_stats circuit)
