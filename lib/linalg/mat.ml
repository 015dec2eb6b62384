type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.create";
  { rows; cols; re = Array.make (rows * cols) 0.; im = Array.make (rows * cols) 0. }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let (z : Cplx.t) = f i j in
      m.re.((i * cols) + j) <- z.re;
      m.im.((i * cols) + j) <- z.im
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then Cplx.one else Cplx.zero)
let zeros rows cols = create rows cols

let of_rows rows =
  match rows with
  | [] -> invalid_arg "Mat.of_rows: empty"
  | first :: _ ->
    let nrows = List.length rows and ncols = List.length first in
    if List.exists (fun r -> List.length r <> ncols) rows then
      invalid_arg "Mat.of_rows: ragged rows";
    let arr = Array.of_list (List.map Array.of_list rows) in
    init nrows ncols (fun i j -> arr.(i).(j))

let of_real_rows rows = of_rows (List.map (List.map Cplx.re) rows)

let diag d =
  let n = Array.length d in
  init n n (fun i j -> if i = j then d.(i) else Cplx.zero)

let permutation n f =
  let seen = Array.make n false in
  for k = 0 to n - 1 do
    let fk = f k in
    if fk < 0 || fk >= n || seen.(fk) then invalid_arg "Mat.permutation: not a bijection";
    seen.(fk) <- true
  done;
  init n n (fun i j -> if i = f j then Cplx.one else Cplx.zero)

let get m i j = Cplx.c m.re.((i * m.cols) + j) m.im.((i * m.cols) + j)

let set m i j (z : Cplx.t) =
  m.re.((i * m.cols) + j) <- z.re;
  m.im.((i * m.cols) + j) <- z.im

let dims m = (m.rows, m.cols)
let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }

let map2 name f a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg ("Mat." ^ name ^ ": dimension mismatch");
  { a with
    re = Array.init (Array.length a.re) (fun k -> f a.re.(k) b.re.(k));
    im = Array.init (Array.length a.im) (fun k -> f a.im.(k) b.im.(k)) }

let add a b = map2 "add" ( +. ) a b
let sub a b = map2 "sub" ( -. ) a b

let scale (z : Cplx.t) m =
  { m with
    re = Array.init (Array.length m.re) (fun k -> (z.re *. m.re.(k)) -. (z.im *. m.im.(k)));
    im = Array.init (Array.length m.im) (fun k -> (z.re *. m.im.(k)) +. (z.im *. m.re.(k))) }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let m = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let are = a.re.((i * a.cols) + k) and aim = a.im.((i * a.cols) + k) in
      if are <> 0. || aim <> 0. then
        for j = 0 to b.cols - 1 do
          let bre = b.re.((k * b.cols) + j) and bim = b.im.((k * b.cols) + j) in
          let idx = (i * m.cols) + j in
          m.re.(idx) <- m.re.(idx) +. (are *. bre) -. (aim *. bim);
          m.im.(idx) <- m.im.(idx) +. (are *. bim) +. (aim *. bre)
        done
    done
  done;
  m

let mul_many = function
  | [] -> invalid_arg "Mat.mul_many: empty"
  | first :: rest -> List.fold_left mul first rest

let apply m (v : Vec.t) =
  if m.cols <> v.n then invalid_arg "Mat.apply: dimension mismatch";
  let out = Vec.create m.rows in
  for i = 0 to m.rows - 1 do
    let re = ref 0. and im = ref 0. in
    for j = 0 to m.cols - 1 do
      let mre = m.re.((i * m.cols) + j) and mim = m.im.((i * m.cols) + j) in
      re := !re +. (mre *. v.Vec.re.(j)) -. (mim *. v.Vec.im.(j));
      im := !im +. (mre *. v.Vec.im.(j)) +. (mim *. v.Vec.re.(j))
    done;
    out.Vec.re.(i) <- !re;
    out.Vec.im.(i) <- !im
  done;
  out

let transpose m = init m.cols m.rows (fun i j -> get m j i)
let conj m = { m with im = Array.map Float.neg m.im }
let adjoint m = transpose (conj m)

let kron a b =
  let rows = a.rows * b.rows and cols = a.cols * b.cols in
  init rows cols (fun i j ->
      let ai = i / b.rows and bi = i mod b.rows in
      let aj = j / b.cols and bj = j mod b.cols in
      Cplx.( *: ) (get a ai aj) (get b bi bj))

let kron_many = function
  | [] -> invalid_arg "Mat.kron_many: empty"
  | first :: rest -> List.fold_left kron first rest

let trace m =
  if m.rows <> m.cols then invalid_arg "Mat.trace: not square";
  let re = ref 0. and im = ref 0. in
  for i = 0 to m.rows - 1 do
    re := !re +. m.re.((i * m.cols) + i);
    im := !im +. m.im.((i * m.cols) + i)
  done;
  Cplx.c !re !im

let one_norm m =
  let best = ref 0. in
  for j = 0 to m.cols - 1 do
    let acc = ref 0. in
    for i = 0 to m.rows - 1 do
      acc := !acc +. Cplx.norm (get m i j)
    done;
    if !acc > !best then best := !acc
  done;
  !best

(* NaN once any entry is NaN, so that every [<= tol] test on it fails. *)
let max_abs m =
  let best = ref 0. in
  for k = 0 to Array.length m.re - 1 do
    let v = sqrt ((m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k))) in
    if v > !best || Float.is_nan v then best := v
  done;
  !best

let max_abs_diff a b = max_abs (sub a b)
let equal ?(tol = 1e-9) a b = a.rows = b.rows && a.cols = b.cols && max_abs_diff a b <= tol

let equal_up_to_phase ?(tol = 1e-9) a b =
  if a.rows <> b.rows || a.cols <> b.cols then false
  else begin
    (* Find the largest entry of b and use it to fix the phase. *)
    let best = ref 0. and bi = ref 0 in
    for k = 0 to Array.length b.re - 1 do
      let v = (b.re.(k) *. b.re.(k)) +. (b.im.(k) *. b.im.(k)) in
      if v > !best then begin
        best := v;
        bi := k
      end
    done;
    if !best <= tol *. tol then max_abs a <= tol
    else begin
      let zb = Cplx.c b.re.(!bi) b.im.(!bi) and za = Cplx.c a.re.(!bi) a.im.(!bi) in
      let phase = Cplx.( /: ) za zb in
      if Float.abs (Cplx.norm phase -. 1.) > 1e-6 then false
      else equal ~tol a (scale phase b)
    end
  end

let is_unitary ?(tol = 1e-9) m =
  m.rows = m.cols && equal ~tol (mul (adjoint m) m) (identity m.rows)

let is_diagonal m =
  m.rows = m.cols
  &&
  let ok = ref true in
  (try
     for i = 0 to m.rows - 1 do
       let row = i * m.cols in
       for j = 0 to m.cols - 1 do
         if i <> j && (m.re.(row + j) <> 0. || m.im.(row + j) <> 0.) then begin
           ok := false;
           raise Exit
         end
       done
     done
   with Exit -> ());
  !ok

let diagonal_entries m =
  if m.rows <> m.cols || not (is_diagonal m) then None
  else
    Some
      ( Array.init m.rows (fun i -> m.re.((i * m.cols) + i)),
        Array.init m.rows (fun i -> m.im.((i * m.cols) + i)) )

let monomial_structure m =
  if m.rows <> m.cols then None
  else begin
    let n = m.rows in
    let src = Array.make n (-1) in
    let pre = Array.make n 0. and pim = Array.make n 0. in
    let col_used = Array.make n false in
    let ok = ref true in
    (try
       for i = 0 to n - 1 do
         let row = i * n in
         let found = ref (-1) in
         for j = 0 to n - 1 do
           if m.re.(row + j) <> 0. || m.im.(row + j) <> 0. then begin
             if !found >= 0 then begin
               ok := false;
               raise Exit
             end;
             found := j
           end
         done;
         if !found < 0 || col_used.(!found) then begin
           ok := false;
           raise Exit
         end;
         col_used.(!found) <- true;
         src.(i) <- !found;
         pre.(i) <- m.re.(row + !found);
         pim.(i) <- m.im.(row + !found)
       done
     with Exit -> ());
    if !ok then Some (src, pre, pim) else None
  end

let process_fidelity u v =
  if u.rows <> v.rows || u.rows <> u.cols || v.rows <> v.cols then
    invalid_arg "Mat.process_fidelity";
  let t = trace (mul (adjoint u) v) in
  Cplx.norm2 t /. float_of_int (u.rows * u.rows)

(* Scaling-and-squaring Taylor exponential: pick s so that ||A/2^s||₁ ≤ 1/2,
   run the series until terms vanish, square back up. *)
let expm a =
  if a.rows <> a.cols then invalid_arg "Mat.expm: not square";
  let n = a.rows in
  let nrm = one_norm a in
  let s = if nrm <= 0.5 then 0 else int_of_float (Float.ceil (Float.log (nrm /. 0.5) /. Float.log 2.)) in
  let x = scale (Cplx.re (1. /. Float.of_int (1 lsl s))) a in
  let result = ref (identity n) in
  let term = ref (identity n) in
  let k = ref 1 in
  let continue = ref true in
  while !continue && !k < 40 do
    term := scale (Cplx.re (1. /. float_of_int !k)) (mul !term x);
    result := add !result !term;
    if max_abs !term < 1e-16 then continue := false;
    incr k
  done;
  let r = ref !result in
  for _ = 1 to s do
    r := mul !r !r
  done;
  !r

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf "  ";
      Cplx.pp ppf (get m i j)
    done;
    Format.fprintf ppf "@]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
