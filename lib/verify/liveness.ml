open Waltz_circuit

type event = Cancel of int * int | Fuse of int * int | Dead of int

(* The frontier is a list of gate indices, newest first. Invariant: each
   member commutes with every gate the scan consumed after it, so it can be
   moved adjacent to the current point. [sink] observes the decisions. *)
let step ~(gates : Gate.t array) ?sink frontier i (g : Gate.t) =
  let emit ev = match sink with Some f -> f ev | None -> () in
  if Optimizer.is_identity_rotation g.Gate.kind then begin
    emit (Dead i);
    (* An identity rotation is a no-op: it blocks nothing. *)
    frontier
  end
  else begin
    let cancel_partner =
      List.find_opt
        (fun j ->
          let f = gates.(j) in
          f.Gate.qubits = g.Gate.qubits && Optimizer.cancels f.Gate.kind g.Gate.kind)
        frontier
    in
    match cancel_partner with
    | Some j ->
      emit (Cancel (j, i));
      List.filter (fun k -> k <> j) frontier
    | None ->
      (match
         List.find_opt
           (fun j ->
             let f = gates.(j) in
             f.Gate.qubits = g.Gate.qubits
             && Option.is_some (Optimizer.fuse f.Gate.kind g.Gate.kind))
           frontier
       with
      | Some j when j <> i - 1 -> emit (Fuse (j, i))
      | _ -> ());
      let survivors = List.filter (fun j -> Gate.commutes gates.(j) g) frontier in
      i :: survivors
  end

let events (c : Circuit.t) =
  let gates = Array.of_list c.Circuit.gates in
  let acc = ref [] in
  let sink ev = acc := ev :: !acc in
  let _final =
    Array.to_list gates
    |> List.fold_left
         (fun (frontier, i) g -> (step ~gates ~sink frontier i g, i + 1))
         ([], 0)
  in
  List.rev !acc

let cancellable_pairs c =
  List.filter_map (function Cancel (i, j) -> Some (i, j) | _ -> None) (events c)

let drop_pairs (c : Circuit.t) pairs =
  let dead = Hashtbl.create 16 in
  List.iter
    (fun (i, j) ->
      Hashtbl.replace dead i ();
      Hashtbl.replace dead j ())
    pairs;
  Circuit.of_gates ~n:c.Circuit.n
    (List.filteri (fun i _ -> not (Hashtbl.mem dead i)) c.Circuit.gates)

let simplify_deep_with_stats c =
  let rec go c (acc : Optimizer.stats) =
    let c', (s : Optimizer.stats) = Optimizer.simplify_with_stats c in
    let acc =
      { Optimizer.removed = acc.removed + s.removed; fused = acc.fused + s.fused }
    in
    match cancellable_pairs c' with
    | [] -> (c', acc)
    | ps ->
      go (drop_pairs c' ps) { acc with removed = acc.removed + (2 * List.length ps) }
  in
  go c { Optimizer.removed = 0; fused = 0 }

let simplify_deep c = fst (simplify_deep_with_stats c)

let max_reported = 16

let check (c : Circuit.t) =
  let gates = Array.of_list c.Circuit.gates in
  let name i = Gate.name gates.(i).Gate.kind in
  let evs = events c in
  let count = ref 0 in
  List.filter_map
    (fun ev ->
      incr count;
      if !count > max_reported then None
      else
        match ev with
        | Cancel (i, j) when j > i + 1 ->
          Some
            (Diagnostic.warning ~op_index:i
               ~fix:(Printf.sprintf "drop gates %d and %d" i j)
               "LIVE01"
               (Printf.sprintf
                  "%s at gate %d cancels %s at gate %d: everything in between commutes"
                  (name i) i (name j) j))
        | Cancel (i, j) ->
          (* Adjacent pairs are the peephole's job; still report, quietly. *)
          Some
            (Diagnostic.warning ~op_index:i
               ~fix:(Printf.sprintf "drop gates %d and %d" i j)
               "LIVE01" (Printf.sprintf "adjacent gates %d and %d cancel" i j))
        | Fuse (i, j) ->
          Some
            (Diagnostic.info ~op_index:i
               ~fix:(Printf.sprintf "merge gate %d into gate %d" j i)
               "LIVE03"
               (Printf.sprintf "rotations at gates %d and %d share an axis and can merge" i j))
        | Dead i ->
          Some
            (Diagnostic.warning ~op_index:i
               ~fix:(Printf.sprintf "drop gate %d" i)
               "LIVE02" (Printf.sprintf "%s at gate %d is an identity rotation" (name i) i)))
    evs
