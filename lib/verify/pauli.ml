open Waltz_circuit

type pauli = { x : Bytes.t; z : Bytes.t; mutable neg : bool }

type t = { n : int; xs : pauli array; zs : pauli array }

let getx p q = Bytes.get_uint8 p.x q <> 0
let getz p q = Bytes.get_uint8 p.z q <> 0
let setx p q b = Bytes.set_uint8 p.x q (if b then 1 else 0)
let setz p q b = Bytes.set_uint8 p.z q (if b then 1 else 0)

let basis n ~kind i =
  let p = { x = Bytes.make n '\000'; z = Bytes.make n '\000'; neg = false } in
  (match kind with `X -> setx p i true | `Z -> setz p i true);
  p

let identity n =
  { n;
    xs = Array.init n (basis n ~kind:`X);
    zs = Array.init n (basis n ~kind:`Z) }

let equal_pauli a b = a.neg = b.neg && Bytes.equal a.x b.x && Bytes.equal a.z b.z

let equal a b =
  a.n = b.n
  && Array.for_all2 equal_pauli a.xs b.xs
  && Array.for_all2 equal_pauli a.zs b.zs

let is_identity t = equal t (identity t.n)

let key t =
  let buf = Buffer.create ((4 * t.n * t.n) + (4 * t.n)) in
  let add p =
    Buffer.add_bytes buf p.x;
    Buffer.add_bytes buf p.z;
    Buffer.add_char buf (if p.neg then '-' else '+')
  in
  Array.iter add t.xs;
  Array.iter add t.zs;
  Buffer.contents buf

(* Conjugation rules: each stored image P becomes g P g†. *)

let conj_h p q =
  let x = getx p q and z = getz p q in
  if x && z then p.neg <- not p.neg;
  setx p q z;
  setz p q x

let conj_s p q =
  let x = getx p q and z = getz p q in
  if x && z then p.neg <- not p.neg;
  setz p q (x <> z)

let conj_sdg p q =
  let x = getx p q and z = getz p q in
  if x && not z then p.neg <- not p.neg;
  setz p q (x <> z)

let conj_x p q = if getz p q then p.neg <- not p.neg
let conj_z p q = if getx p q then p.neg <- not p.neg
let conj_y p q = if getx p q <> getz p q then p.neg <- not p.neg

let conj_cx p c t =
  let xc = getx p c and zc = getz p c and xt = getx p t and zt = getz p t in
  if xc && zt && xt = zc then p.neg <- not p.neg;
  setx p t (xt <> xc);
  setz p c (zc <> zt)

let conj_cz p a b =
  conj_h p b;
  conj_cx p a b;
  conj_h p b

let conj_swap p a b =
  let xa = getx p a and za = getz p a in
  setx p a (getx p b);
  setz p a (getz p b);
  setx p b xa;
  setz p b za

let is_clifford = function
  | Gate.X | Gate.Y | Gate.Z | Gate.H | Gate.S | Gate.Sdg | Gate.Cx | Gate.Cz
  | Gate.Swap -> true
  | _ -> false

let apply t (g : Gate.t) =
  let conj =
    match (g.Gate.kind, g.Gate.qubits) with
    | Gate.H, [ q ] -> Some (fun p -> conj_h p q)
    | Gate.S, [ q ] -> Some (fun p -> conj_s p q)
    | Gate.Sdg, [ q ] -> Some (fun p -> conj_sdg p q)
    | Gate.X, [ q ] -> Some (fun p -> conj_x p q)
    | Gate.Y, [ q ] -> Some (fun p -> conj_y p q)
    | Gate.Z, [ q ] -> Some (fun p -> conj_z p q)
    | Gate.Cx, [ c; t' ] -> Some (fun p -> conj_cx p c t')
    | Gate.Cz, [ a; b ] -> Some (fun p -> conj_cz p a b)
    | Gate.Swap, [ a; b ] -> Some (fun p -> conj_swap p a b)
    | _ -> None (* not Clifford, or the operand count is off *)
  in
  match conj with
  | Some f when List.for_all (fun q -> q >= 0 && q < t.n) g.Gate.qubits ->
    Array.iter f t.xs;
    Array.iter f t.zs;
    true
  | _ -> false

let pp_pauli ppf p =
  Format.fprintf ppf "%c" (if p.neg then '-' else '+');
  for q = 0 to Bytes.length p.x - 1 do
    Format.fprintf ppf "%c"
      (match (getx p q, getz p q) with
      | false, false -> 'I'
      | true, false -> 'X'
      | false, true -> 'Z'
      | true, true -> 'Y')
  done
