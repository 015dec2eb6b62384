open Waltz_linalg

(* ρ is held as vec(ρ), a pure state of the doubled register [dims @ dims]:
   amplitude i·N + j holds ρ_ij, so the first copy of the wires indexes
   rows and the second copy columns. K·ρ·K† is then K on the row wires and
   conj K on the column wires, two [State.apply] calls that cost O(N²·g)
   for a g-dimensional K instead of the O(N³) of dense products. *)
type t = { dims : int array; vec : State.t }

let size t = Array.fold_left ( * ) 1 t.dims

let of_pure state =
  let v = State.amplitudes state and dims = State.dims state in
  let n = Vec.dim v in
  let outer k = Cplx.( *: ) (Vec.get v (k / n)) (Cplx.conj (Vec.get v (k mod n))) in
  let rho = Vec.of_complex_array (Array.init (n * n) outer) in
  { dims; vec = State.of_vec ~dims:(Array.append dims dims) rho }

let trace t =
  let n = size t and re = (State.amplitudes t.vec).Vec.re in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. re.((i * n) + i)
  done;
  !acc

let to_mat t =
  let n = size t and v = State.amplitudes t.vec in
  Mat.init n n (fun i j -> Vec.get v ((i * n) + j))

(* vec ← K·vec·K†. *)
let sandwich t vec ~targets k =
  State.apply vec ~targets k;
  State.apply vec ~targets:(List.map (fun w -> w + Array.length t.dims) targets) (Mat.conj k)

(* y ← a·x + b·y over the raw planes. *)
let combine a (x : Vec.t) b (y : Vec.t) =
  for i = 0 to y.Vec.n - 1 do
    y.Vec.re.(i) <- (a *. x.Vec.re.(i)) +. (b *. y.Vec.re.(i));
    y.Vec.im.(i) <- (a *. x.Vec.im.(i)) +. (b *. y.Vec.im.(i))
  done

let apply_unitary t ~targets u = sandwich t t.vec ~targets u

(* ρ ← Σ_m w_m·K_m·ρ·K_m†: the Kraus sets and the per-part averages of
   [depolarize]. *)
let mix t ~targets terms =
  let rho = State.copy t.vec in
  let v = State.amplitudes t.vec in
  Array.fill v.Vec.re 0 v.Vec.n 0.;
  Array.fill v.Vec.im 0 v.Vec.n 0.;
  List.iter
    (fun (w, k) ->
      let term = State.copy rho in
      sandwich t term ~targets k;
      combine w (State.amplitudes term) 1. v)
    terms

let apply_kraus t ~targets kraus =
  mix t ~targets (List.map (fun k -> (1., k)) kraus);
  let tr = trace t in
  if Float.abs (tr -. 1.) > 1e-6 then
    invalid_arg (Printf.sprintf "Density.apply_kraus: trace drifted to %f" tr)

(* With M the product-set size and T(ρ) each part's set averaged in turn,
   identity included, the uniform mix over the M − 1 non-identity products
   is (M·T(ρ) − ρ)/(M − 1). So the channel (1 − p)·ρ + p·mix costs Σ|set|
   operator pairs instead of ∏|set| − 1. *)
let depolarize t ~parts ~p =
  if p < 0. || p > 1. then invalid_arg "Density.depolarize";
  let m = List.fold_left (fun acc (_, set) -> acc * Array.length set) 1 parts in
  if p > 0. && m > 1 then begin
    let m = float_of_int m in
    let rho = State.copy t.vec in
    List.iter
      (fun (targets, set) ->
        let w = 1. /. float_of_int (Array.length set) in
        mix t ~targets (List.map (fun k -> (w, k)) (Array.to_list set)))
      parts;
    combine (1. -. p -. (p /. (m -. 1.))) (State.amplitudes rho) (p *. m /. (m -. 1.))
      (State.amplitudes t.vec)
  end

let fidelity_with_pure t state =
  let psi = State.amplitudes state in
  if Vec.dim psi <> size t then invalid_arg "Density.fidelity_with_pure";
  (Vec.dot psi (Mat.apply (to_mat t) psi)).Complex.re
