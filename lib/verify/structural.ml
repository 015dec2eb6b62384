open Waltz_linalg
open Waltz_circuit
open Waltz_core

let capacity (p : Physical.t) = p.Physical.device_dim / 2

let in_device_range p d = d >= 0 && d < p.Physical.device_count
let in_slot_range p s = s >= 0 && s < capacity p

let check_map p name (map : (int * int) array) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if Array.length map <> p.Physical.n_logical then
    add
      (Diagnostic.error "WF05"
         (Printf.sprintf "%s has %d entries for %d logical qubits" name (Array.length map)
            p.Physical.n_logical));
  Array.iteri
    (fun q (d, s) ->
      if not (in_device_range p d && in_slot_range p s) then
        add
          (Diagnostic.error "WF06"
             (Printf.sprintf "%s places qubit %d at wire %d.%d, outside %d devices x %d slots"
                name q d s p.Physical.device_count (capacity p))))
    map;
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun q wire ->
      match Hashtbl.find_opt seen wire with
      | Some q0 ->
        add
          (Diagnostic.error "WF05"
             (Printf.sprintf "%s places qubits %d and %d both at wire %d.%d" name q0 q
                (fst wire) (snd wire)))
      | None -> Hashtbl.add seen wire q)
    map;
  List.rev !diags

let check_op p i (op : Physical.op) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let devs = List.map (fun (part : Physical.device_part) -> part.Physical.device) op.Physical.parts in
  if List.length (List.sort_uniq compare devs) <> List.length devs then
    add
      (Diagnostic.error ~op_index:i "WF01"
         (Printf.sprintf "%s lists a device twice in parts [%s]" op.Physical.label
            (String.concat "; " (List.map string_of_int devs))));
  let expected = 1 lsl List.length op.Physical.targets in
  if op.Physical.gate.Mat.rows <> expected || op.Physical.gate.Mat.cols <> expected then
    add
      (Diagnostic.error ~op_index:i "WF02"
         (Printf.sprintf "%s: gate is %dx%d but %d targets need %dx%d" op.Physical.label
            op.Physical.gate.Mat.rows op.Physical.gate.Mat.cols
            (List.length op.Physical.targets) expected expected))
  else if not (Mat.is_unitary ~tol:1e-6 op.Physical.gate) then
    add
      (Diagnostic.error ~op_index:i "WF09"
         (Printf.sprintf "%s: gate matrix is not unitary" op.Physical.label));
  List.iteri
    (fun k (d, s) ->
      if not (List.mem d devs) then
        add
          (Diagnostic.error ~op_index:i "WF03"
             (Printf.sprintf "%s: target %d is wire %d.%d but device %d is not in parts"
                op.Physical.label k d s d));
      if not (in_device_range p d && in_slot_range p s) then
        add
          (Diagnostic.error ~op_index:i "WF06"
             (Printf.sprintf "%s: target wire %d.%d out of range" op.Physical.label d s)))
    op.Physical.targets;
  if
    List.length (List.sort_uniq compare op.Physical.targets)
    <> List.length op.Physical.targets
  then
    add
      (Diagnostic.error ~op_index:i "WF04"
         (Printf.sprintf "%s: duplicate target wires" op.Physical.label));
  List.iter
    (fun (part : Physical.device_part) ->
      if not (in_device_range p part.Physical.device) then
        add
          (Diagnostic.error ~op_index:i "WF06"
             (Printf.sprintf "%s: part device %d out of range" op.Physical.label
                part.Physical.device));
      let cap = capacity p in
      if
        part.Physical.occ_before < 0 || part.Physical.occ_before > cap
        || part.Physical.occ_after < 0
        || part.Physical.occ_after > cap
      then
        add
          (Diagnostic.error ~op_index:i "WF07"
             (Printf.sprintf "%s: device %d occupancy %d -> %d outside [0, %d]"
                op.Physical.label part.Physical.device part.Physical.occ_before
                part.Physical.occ_after cap)))
    op.Physical.parts;
  if op.Physical.parts = [] || op.Physical.targets = [] then
    add
      (Diagnostic.warning ~op_index:i "WF08"
         (Printf.sprintf "%s touches no %s" op.Physical.label
            (if op.Physical.parts = [] then "device" else "wire")));
  List.rev !diags

let check_program (p : Physical.t) =
  let header = ref [] in
  let add d = header := d :: !header in
  if p.Physical.device_dim <> 2 && p.Physical.device_dim <> 4 then
    add
      (Diagnostic.error "WF00"
         (Printf.sprintf "device_dim %d is neither 2 (qubit) nor 4 (ququart)"
            p.Physical.device_dim));
  (match (p.Physical.strategy.Strategy.encoding, p.Physical.device_dim) with
  | Strategy.Bare, 4 | (Strategy.Intermediate | Strategy.Packed), 2 ->
    add
      (Diagnostic.error "WF00"
         (Printf.sprintf "strategy %s cannot run on %d-level devices"
            p.Physical.strategy.Strategy.name p.Physical.device_dim))
  | _ -> ());
  if p.Physical.n_logical <= 0 then
    add (Diagnostic.error "WF00" "n_logical must be positive");
  if p.Physical.device_count <= 0 then
    add (Diagnostic.error "WF00" "device_count must be positive")
  else if p.Physical.n_logical > capacity p * p.Physical.device_count then
    add
      (Diagnostic.error "WF00"
         (Printf.sprintf "%d logical qubits cannot fit %d devices of capacity %d"
            p.Physical.n_logical p.Physical.device_count (capacity p)));
  let header = List.rev !header in
  if header <> [] then header
  else begin
    let maps =
      check_map p "initial_map" p.Physical.initial_map
      @ check_map p "final_map" p.Physical.final_map
    in
    let ops = List.concat (List.mapi (check_op p) p.Physical.ops) in
    maps @ ops
  end

(* A structural error that later passes cannot safely replay through. *)
let fatal diags =
  List.exists
    (fun (d : Diagnostic.t) ->
      d.Diagnostic.severity = Diagnostic.Error
      && List.mem d.Diagnostic.rule [ "WF00"; "WF02"; "WF04"; "WF05"; "WF06"; "WF07" ])
    diags

let check_circuit (c : Circuit.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iteri
    (fun i (g : Gate.t) ->
      let label = Gate.name g.Gate.kind in
      List.iter
        (fun q ->
          if q < 0 || q >= c.Circuit.n then
            add
              (Diagnostic.error ~op_index:i "CIR01"
                 (Printf.sprintf "gate %d (%s): operand %d outside the %d-qubit register" i
                    label q c.Circuit.n)))
        g.Gate.qubits;
      if
        List.length (List.sort_uniq compare g.Gate.qubits) <> List.length g.Gate.qubits
      then
        add
          (Diagnostic.error ~op_index:i "CIR02"
             (Printf.sprintf "gate %d (%s): duplicate operands" i label));
      match g.Gate.kind with
      | Gate.Custom (name, m) ->
        let arity = Gate.arity g.Gate.kind in
        let dim = 1 lsl arity in
        if m.Mat.rows <> m.Mat.cols || m.Mat.rows <> dim || arity = 0 then
          add
            (Diagnostic.error ~op_index:i "CIR03"
               (Printf.sprintf "gate %d (%s): %dx%d matrix is not a 2^k unitary on %d operands"
                  i name m.Mat.rows m.Mat.cols (List.length g.Gate.qubits)))
        else if m.Mat.rows <> 1 lsl List.length g.Gate.qubits then
          add
            (Diagnostic.error ~op_index:i "CIR03"
               (Printf.sprintf "gate %d (%s): %d-dim matrix vs %d operands" i name m.Mat.rows
                  (List.length g.Gate.qubits)))
        else if not (Mat.is_unitary ~tol:1e-6 m) then
          add
            (Diagnostic.error ~op_index:i "CIR03"
               (Printf.sprintf "gate %d (%s): matrix is not unitary" i name))
      | kind ->
        if List.length g.Gate.qubits <> Gate.arity kind then
          add
            (Diagnostic.error ~op_index:i "CIR03"
               (Printf.sprintf "gate %d (%s): %d operands for an arity-%d gate" i label
                  (List.length g.Gate.qubits) (Gate.arity kind))))
    c.Circuit.gates;
  List.rev !diags

let check_link (c : Circuit.t) (p : Physical.t) =
  if c.Circuit.n <> p.Physical.n_logical then
    [ Diagnostic.error "CIR04"
        (Printf.sprintf "circuit has %d qubits but the compiled program declares %d"
           c.Circuit.n p.Physical.n_logical) ]
  else []
