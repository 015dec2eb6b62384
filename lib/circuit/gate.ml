open Waltz_linalg
open Waltz_qudit

type kind =
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | Rx of float
  | Ry of float
  | Rz of float
  | Phase of float
  | Cx
  | Cz
  | Swap
  | Csdg
  | Ccx
  | Ccz
  | Cswap
  | Cccx
  | Cccz
  | Custom of string * Mat.t

type t = { kind : kind; qubits : int list }

let arity = function
  | X | Y | Z | H | S | Sdg | T | Tdg | Rx _ | Ry _ | Rz _ | Phase _ -> 1
  | Cx | Cz | Swap | Csdg -> 2
  | Ccx | Ccz | Cswap -> 3
  | Cccx | Cccz -> 4
  | Custom (_, m) ->
    let n = m.Mat.rows in
    let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
    log2 0 n

let name = function
  | X -> "X"
  | Y -> "Y"
  | Z -> "Z"
  | H -> "H"
  | S -> "S"
  | Sdg -> "Sdg"
  | T -> "T"
  | Tdg -> "Tdg"
  | Rx theta -> Printf.sprintf "Rx(%.3f)" theta
  | Ry theta -> Printf.sprintf "Ry(%.3f)" theta
  | Rz theta -> Printf.sprintf "Rz(%.3f)" theta
  | Phase theta -> Printf.sprintf "P(%.3f)" theta
  | Cx -> "CX"
  | Cz -> "CZ"
  | Swap -> "SWAP"
  | Csdg -> "CSdg"
  | Ccx -> "CCX"
  | Ccz -> "CCZ"
  | Cswap -> "CSWAP"
  | Cccx -> "CCCX"
  | Cccz -> "CCCZ"
  | Custom (label, _) -> label

let unitary = function
  | X -> Gates.x
  | Y -> Gates.y
  | Z -> Gates.z
  | H -> Gates.h
  | S -> Gates.s
  | Sdg -> Gates.sdg
  | T -> Gates.t
  | Tdg -> Gates.tdg
  | Rx theta -> Gates.rx theta
  | Ry theta -> Gates.ry theta
  | Rz theta -> Gates.rz theta
  | Phase theta -> Gates.phase theta
  | Cx -> Gates.cx
  | Cz -> Gates.cz
  | Swap -> Gates.swap
  | Csdg -> Gates.csdg
  | Ccx -> Gates.ccx
  | Ccz -> Gates.ccz
  | Cswap -> Gates.cswap
  | Cccx -> Gates.controlled Gates.ccx
  | Cccz -> Gates.controlled Gates.ccz
  | Custom (_, m) -> m

let string_of_operands qubits = String.concat ", " (List.map string_of_int qubits)

let rec absent (q : int) = function [] -> true | r :: rest -> r <> q && absent q rest
let rec distinct = function [] -> true | q :: rest -> absent q rest && distinct rest

(* The checks allocate nothing unless one fails: the QASM reader makes one
   gate per statement. *)
let make kind qubits =
  let n = arity kind in
  if List.length qubits <> n then
    invalid_arg
      (Printf.sprintf "Gate.make: %s expects %d operands, got %d (%s)" (name kind) n
         (List.length qubits) (string_of_operands qubits));
  if not (distinct qubits) then
    invalid_arg
      (Printf.sprintf "Gate.make: %s has duplicate operands (%s)" (name kind)
         (string_of_operands qubits));
  if List.exists (fun q -> q < 0) qubits then
    List.iteri
      (fun i q ->
        if q < 0 then
          invalid_arg
            (Printf.sprintf "Gate.make: %s operand %d is the negative qubit index %d"
               (name kind) i q))
      qubits;
  (match kind with
  | (Rx theta | Ry theta | Rz theta | Phase theta) when not (Float.is_finite theta) ->
    invalid_arg (Printf.sprintf "Gate.make: %s needs a finite angle" (name kind))
  | _ -> ());
  { kind; qubits }

let is_three_qubit g = arity g.kind = 3

let controls g =
  match (g.kind, g.qubits) with
  | Cx, [ c; _ ] | Cz, [ c; _ ] | Csdg, [ c; _ ] -> [ c ]
  | Ccx, [ c0; c1; _ ] -> [ c0; c1 ]
  | Cccx, [ c0; c1; c2; _ ] -> [ c0; c1; c2 ]
  | Ccz, qs | Cccz, qs -> qs
  | Cswap, [ c; _; _ ] -> [ c ]
  | _ -> []

let targets g =
  match (g.kind, g.qubits) with
  | Cx, [ _; t ] | Cz, [ _; t ] | Csdg, [ _; t ] -> [ t ]
  | Ccx, [ _; _; t ] -> [ t ]
  | Cccx, [ _; _; _; t ] -> [ t ]
  | Ccz, _ | Cccz, _ -> []
  | Cswap, [ _; t0; t1 ] -> [ t0; t1 ]
  | _ -> g.qubits

(* Per-operand basis action: [`ZAxis] means the gate commutes with Z on that
   qubit (block-diagonal in its computational basis), [`XAxis] with X.
   [`Unknown] is the conservative default. *)
let axis_on kind ~position =
  match kind with
  | Z | S | Sdg | T | Tdg | Rz _ | Phase _ -> `ZAxis
  | X | Rx _ -> `XAxis
  | Y | H | Ry _ | Swap | Cswap | Custom _ -> `Unknown
  | Cz | Csdg | Ccz | Cccz -> `ZAxis
  | Cx -> if position = 0 then `ZAxis else `XAxis
  | Ccx -> if position < 2 then `ZAxis else `XAxis
  | Cccx -> if position < 3 then `ZAxis else `XAxis

let axis_of g q =
  let rec find i = function
    | [] -> `Unknown
    | q' :: rest -> if q' = q then axis_on g.kind ~position:i else find (i + 1) rest
  in
  find 0 g.qubits

let equal a b =
  a.qubits = b.qubits
  &&
  match (a.kind, b.kind) with
  | Custom (la, ma), Custom (lb, mb) -> la = lb && Mat.equal ma mb
  | ka, kb -> ka = kb

let commutes a b =
  let shared = List.filter (fun q -> List.mem q b.qubits) a.qubits in
  shared = []
  || equal a b
  || List.for_all
       (fun q ->
         match (axis_of a q, axis_of b q) with
         | `ZAxis, `ZAxis | `XAxis, `XAxis -> true
         | _ -> false)
       shared

let pp ppf g =
  Format.fprintf ppf "%s(%s)" (name g.kind)
    (String.concat ", " (List.map string_of_int g.qubits))
