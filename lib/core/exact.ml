open Waltz_linalg
open Waltz_noise
open Waltz_sim

type result = { mean_fidelity : float; inputs : int }

let max_exact_devices ~device_dim = if device_dim = 4 then 3 else 6

(* Kraus operators of the generalized amplitude-damping step. *)
let damping_kraus ~d lambdas =
  let k0 =
    Mat.diag (Array.init d (fun l -> Cplx.re (sqrt (1. -. lambdas.(l)))))
  in
  let jumps =
    List.filter_map
      (fun m ->
        if m = 0 || lambdas.(m) <= 0. then None
        else
          Some
            (Mat.init d d (fun i j ->
                 if i = 0 && j = m then Cplx.re (sqrt lambdas.(m)) else Cplx.zero)))
      (List.init d Fun.id)
  in
  k0 :: jumps

let error_set ~device_dim role =
  let embed = Executor.embed_error ~device_dim role in
  match role with
  | Physical.P4 -> Array.map Fun.id (Noise.pauli_set ~d:4)
  | Physical.P2 _ -> Array.map embed (Noise.pauli_set ~d:2)
  | Physical.Quiet -> invalid_arg "Exact.error_set"

let simulate_exact ?(model = Noise.default) ?(inputs = 10) ?(base_seed = 2023)
    (compiled : Physical.t) =
  let device_dim = compiled.Physical.device_dim in
  if compiled.Physical.device_count > max_exact_devices ~device_dim then
    invalid_arg "Exact.simulate_exact: register too large for density evolution";
  let schedule = Physical.schedule compiled in
  let total_duration = Physical.total_duration compiled in
  let dims = Array.make compiled.Physical.device_count device_dim in
  let allowed = Executor.initial_allowed compiled in
  let lifted =
    List.map
      (fun ((op : Physical.op), start) ->
        let devices, gate = Executor.lift_gate ~device_dim op in
        (op, start, devices, gate))
      schedule
  in
  let run_input k =
    let rng = Rng.make ~seed:(base_seed + (7919 * k)) in
    let input = State.random_supported rng ~dims ~allowed in
    let ideal = State.copy input in
    List.iter (fun (_, _, devices, gate) -> State.apply ideal ~targets:devices gate) lifted;
    let rho = Density.of_pure input in
    let last_busy = Array.make compiled.Physical.device_count 0. in
    let idle_damp device until =
      let dt = until -. last_busy.(device) in
      if dt > 1e-9 then begin
        let lambdas = Noise.damping_lambdas model ~d:device_dim ~dt_ns:dt in
        Density.apply_kraus rho ~targets:[ device ] (damping_kraus ~d:device_dim lambdas)
      end
    in
    List.iter
      (fun ((op : Physical.op), start, devices, gate) ->
        List.iter
          (fun (p : Physical.device_part) -> idle_damp p.Physical.device start)
          op.Physical.parts;
        Density.apply_unitary rho ~targets:devices gate;
        let err = 1. -. op.Physical.fidelity in
        let err = if op.Physical.touches_ww then err *. model.Noise.ww_error_scale else err in
        if err > 0. then begin
          let parts =
            List.filter_map
              (fun (p : Physical.device_part) ->
                match p.Physical.noise with
                | Physical.Quiet -> None
                | role -> Some ([ p.Physical.device ], error_set ~device_dim role))
              op.Physical.parts
          in
          if parts <> [] then Density.depolarize rho ~parts ~p:(Float.min 1. err)
        end;
        List.iter
          (fun (p : Physical.device_part) ->
            last_busy.(p.Physical.device) <- start +. op.Physical.duration_ns)
          op.Physical.parts)
      lifted;
    for d = 0 to compiled.Physical.device_count - 1 do
      idle_damp d total_duration
    done;
    Density.fidelity_with_pure rho ideal
  in
  let values = List.init inputs run_input in
  { mean_fidelity = List.fold_left ( +. ) 0. values /. float_of_int inputs; inputs }
