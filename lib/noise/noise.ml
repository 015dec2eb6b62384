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

let gate_error model ~fidelity ~touches_ww =
  let err = 1. -. fidelity in
  if touches_ww then err *. model.ww_error_scale else err

let paulis d = Array.init (d * d) (fun k -> Qudit_ops.pauli ~d (k / d) (k mod d))

(* Trajectories only ever draw qubit and ququart Paulis: both sets are built
   once at module init and shared read-only by every domain. *)
let paulis2 = paulis 2
let paulis4 = paulis 4
let pauli_set ~d = match d with 2 -> paulis2 | 4 -> paulis4 | d -> paulis d

let draw_error rng ~dims ~p =
  if p <= 0. then None
  else if Rng.float rng 1. >= p then None
  else begin
    (* Uniform over the non-identity elements of the product Pauli set. *)
    let total = List.fold_left (fun acc d -> acc * d * d) 1 dims in
    let k = 1 + Rng.int rng (total - 1) in
    let rec split k = function
      | [] -> []
      | d :: rest ->
        let block = List.fold_left (fun acc d' -> acc * d' * d') 1 rest in
        let idx = k / block in
        (pauli_set ~d).(idx) :: split (k mod block) rest
    in
    Some (split k dims)
  end

let t1_of_level model k =
  if k < 1 then invalid_arg "Noise.t1_of_level";
  let base = model.t1_base_ns /. float_of_int k in
  if k >= 2 then base /. model.t1_high_scale else base

let damping_lambdas model ~d ~dt_ns =
  Array.init d (fun m ->
      if m = 0 then 0. else 1. -. exp (-.dt_ns /. t1_of_level model m))

let decoherence_survival model ~max_level ~dt_ns =
  if max_level <= 0 then 1. else exp (-.dt_ns /. t1_of_level model max_level)
