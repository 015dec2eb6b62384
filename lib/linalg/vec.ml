type t = { n : int; re : float array; im : float array }

let create n = { n; re = Array.make n 0.; im = Array.make n 0. }

let basis n k =
  if k < 0 || k >= n then invalid_arg "Vec.basis";
  let v = create n in
  v.re.(k) <- 1.;
  v

let of_complex_array (a : Cplx.t array) =
  let n = Array.length a in
  { n;
    re = Array.map (fun (z : Cplx.t) -> z.re) a;
    im = Array.map (fun (z : Cplx.t) -> z.im) a }

let copy v = { v with re = Array.copy v.re; im = Array.copy v.im }
let get v k = Cplx.c v.re.(k) v.im.(k)

let set v k (z : Cplx.t) =
  v.re.(k) <- z.re;
  v.im.(k) <- z.im

let dim v = v.n

let dot a b =
  if a.n <> b.n then invalid_arg "Vec.dot: dimension mismatch";
  let re = ref 0. and im = ref 0. in
  for k = 0 to a.n - 1 do
    re := !re +. (a.re.(k) *. b.re.(k)) +. (a.im.(k) *. b.im.(k));
    im := !im +. (a.re.(k) *. b.im.(k)) -. (a.im.(k) *. b.re.(k))
  done;
  Cplx.c !re !im

let norm2 v =
  let acc = ref 0. in
  for k = 0 to v.n - 1 do
    acc := !acc +. (v.re.(k) *. v.re.(k)) +. (v.im.(k) *. v.im.(k))
  done;
  !acc

let norm v = sqrt (norm2 v)

let normalize_in_place v =
  let nrm = norm v in
  if nrm = 0. then invalid_arg "Vec.normalize_in_place: zero vector";
  let s = 1. /. nrm in
  for k = 0 to v.n - 1 do
    v.re.(k) <- v.re.(k) *. s;
    v.im.(k) <- v.im.(k) *. s
  done

let overlap2 a b = Cplx.norm2 (dot a b)

let gaussian rand_gauss n =
  let v =
    { n;
      re = Array.init n (fun _ -> rand_gauss ());
      im = Array.init n (fun _ -> rand_gauss ()) }
  in
  normalize_in_place v;
  v
