open Waltz_linalg
open Waltz_qudit

type model = {
  t1_base_ns : float;
  t1_high_scale : float;
  ww_error_scale : float;
  seed : int;
}

let default =
  { t1_base_ns = Calibration.t1_base_ns; t1_high_scale = 1.; ww_error_scale = 1.; seed = 2023 }

let check model =
  let refuse field v rule =
    invalid_arg (Printf.sprintf "Noise.model: %s = %g must be finite and %s" field v rule)
  in
  let positive field v = if not (Float.is_finite v && v > 0.) then refuse field v "> 0" in
  positive "t1_base_ns" model.t1_base_ns;
  positive "t1_high_scale" model.t1_high_scale;
  if not (Float.is_finite model.ww_error_scale && model.ww_error_scale >= 0.) then
    refuse "ww_error_scale" model.ww_error_scale ">= 0"

let gate_error model ~fidelity ~touches_ww =
  let err = 1. -. fidelity in
  if touches_ww then err *. model.ww_error_scale else err

let paulis d = Array.init (d * d) (fun k -> Qudit_ops.pauli ~d (k / d) (k mod d))

(* Trajectories only ever draw qubit and ququart Paulis: both sets are built
   once at module init and shared read-only by every domain. *)
let paulis2 = paulis 2
let paulis4 = paulis 4
let pauli_set ~d = match d with 2 -> paulis2 | 4 -> paulis4 | d -> paulis d

let error_products ~dims = List.fold_left (fun acc d -> acc * d * d) 1 dims

(* Mixed-radix digits of [k], first operand most significant. *)
let error_product ~dims k =
  if k < 0 || k >= error_products ~dims then invalid_arg "Noise.error_product";
  let rec split k = function
    | [] -> []
    | d :: rest ->
      let block = error_products ~dims:rest in
      (pauli_set ~d).(k / block) :: split (k mod block) rest
  in
  split k dims

let draw_error rng ~dims ~p =
  if p <= 0. then None
  else if Rng.float rng 1. >= p then None
  else Some (error_product ~dims (1 + Rng.int rng (error_products ~dims - 1)))

let t1_of_level model k =
  if k < 1 then invalid_arg "Noise.t1_of_level";
  let base = model.t1_base_ns /. float_of_int k in
  if k >= 2 then base /. model.t1_high_scale else base

let damping_lambdas model ~d ~dt_ns =
  Array.init d (fun m ->
      if m = 0 then 0. else 1. -. exp (-.dt_ns /. t1_of_level model m))

let decoherence_survival model ~max_level ~dt_ns =
  if max_level <= 0 then 1. else exp (-.dt_ns /. t1_of_level model max_level)
