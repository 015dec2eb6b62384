open Waltz_circuit

(* Pauli.apply leaves the tableau untouched and returns false on a gate it
   cannot track, so the first non-Clifford gate ends the proof. *)
let tableau_of (c : Circuit.t) =
  let tab = Pauli.identity c.Circuit.n in
  if List.for_all (Pauli.apply tab) c.Circuit.gates then Some tab else None

let equivalent a b =
  if a.Circuit.n <> b.Circuit.n then `Different
  else
    match (tableau_of a, tableau_of b) with
    | Some ta, Some tb -> if Pauli.equal ta tb then `Equal else `Different
    | _ -> `Unknown

type run = { start : int; stop : int }

(* Scan with segment-local tableaux: non-Clifford gates reset the segment.
   Interning the tableau after every gate finds the earliest prior position
   with the same state; the gates in between compose to the identity. *)
let identity_runs (c : Circuit.t) =
  let n = c.Circuit.n in
  let runs = ref [] in
  let seen = Hashtbl.create 64 in
  let reset tab pos =
    Hashtbl.reset seen;
    Hashtbl.add seen (Pauli.key tab) pos
  in
  let tab = ref (Pauli.identity n) in
  reset !tab 0;
  List.iteri
    (fun i (g : Gate.t) ->
      if Pauli.apply !tab g then begin
        let k = Pauli.key !tab in
        match Hashtbl.find_opt seen k with
        | Some j when i + 1 - j >= 2 ->
          runs := { start = j; stop = i } :: !runs;
          (* Restart after the run so later reports never overlap it. *)
          reset !tab (i + 1)
        | Some _ -> ()
        | None -> Hashtbl.add seen k (i + 1)
      end
      else begin
        (* Non-Clifford: new segment starting after gate i. *)
        tab := Pauli.identity n;
        reset !tab (i + 1)
      end)
    c.Circuit.gates;
  List.rev !runs

let max_reported_runs = 8

let check (c : Circuit.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let gates = c.Circuit.gates in
  let total = List.length gates in
  let clifford = List.length (List.filter (fun g -> Pauli.is_clifford g.Gate.kind) gates) in
  (match tableau_of c with
  | Some tab ->
    let optimized = Optimizer.simplify c in
    (match tableau_of optimized with
    | Some tab' ->
      if Pauli.equal tab tab' then
        add
          (Diagnostic.info "STAB01"
             (Printf.sprintf
                "optimizer output certified equivalent on %d qubits (%d -> %d gates, \
                 tableau proof)"
                c.Circuit.n total
                (List.length optimized.Circuit.gates)))
      else
        add
          (Diagnostic.error "STAB03"
             (Printf.sprintf
                "optimizer output NOT equivalent: stabilizer images diverge on the \
                 %d-qubit circuit"
                c.Circuit.n))
    | None ->
      (* simplify of a Clifford circuit stays Clifford; defensive only. *)
      add (Diagnostic.info "STAB00" "optimized circuit left the Clifford set"))
  | None ->
    add
      (Diagnostic.info "STAB00"
         (Printf.sprintf "partial coverage: %d of %d gates in Clifford segments" clifford
            total)));
  let runs = identity_runs c in
  List.iteri
    (fun k { start; stop } ->
      if k < max_reported_runs then
        add
          (Diagnostic.warning ~op_index:start
             ~fix:(Printf.sprintf "drop gates %d..%d" start stop)
             "STAB02"
             (Printf.sprintf
                "gates %d..%d compose to the identity (up to global phase): dead code"
                start stop)))
    runs;
  (match List.length runs with
  | r when r > max_reported_runs ->
    add
      (Diagnostic.info "STAB00"
         (Printf.sprintf "%d further identity-composing runs not reported" (r - max_reported_runs)))
  | _ -> ());
  List.rev !diags
