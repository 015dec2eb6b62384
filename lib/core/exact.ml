open Waltz_linalg
open Waltz_noise
open Waltz_sim

type result = { mean_fidelity : float; inputs : int }

let max_exact_devices ~device_dim = if device_dim = 4 then 3 else 6

let damping_kraus ~d (w : Executor.damp_spec) =
  let jumps =
    List.filter_map
      (fun m ->
        if m = 0 || w.Executor.lambdas.(m) <= 0. then None
        else
          Some
            (Mat.init d d (fun i j ->
                 if i = 0 && j = m then Cplx.re (sqrt w.Executor.lambdas.(m)) else Cplx.zero)))
      (List.init d Fun.id)
  in
  Mat.diag (Array.map Cplx.re w.Executor.scales) :: jumps

let error_parts ~device_dim (n : Executor.op_noise) =
  List.map2
    (fun (d, role) radix ->
      ([ d ], Array.map (Executor.embed_error ~device_dim role) (Noise.pauli_set ~d:radix)))
    n.Executor.error_parts n.Executor.error_dims

(* The executor's noise schedule as exact channels: each op's damping
   windows, its lifted unitary, then its depolarizing channel. *)
let simulate_exact ?(model = Noise.default) ?(inputs = 10) ?(base_seed = 2023)
    (compiled : Physical.t) =
  if inputs < 1 then invalid_arg "Exact.simulate_exact: inputs must be >= 1";
  let device_dim = compiled.Physical.device_dim in
  if compiled.Physical.device_count > max_exact_devices ~device_dim then
    invalid_arg "Exact.simulate_exact: register too large for density evolution";
  let dims = Array.make compiled.Physical.device_count device_dim in
  let allowed = Executor.initial_allowed compiled in
  let noise = Executor.noise_schedule ~model compiled in
  let windows =
    List.map (fun (w : Executor.damp_spec) -> (w.Executor.dwire, damping_kraus ~d:device_dim w))
  in
  let steps =
    Array.map2
      (fun ((op : Physical.op), _) (n : Executor.op_noise) ->
        let devices, gate = Executor.lift_gate ~device_dim op in
        ( windows n.Executor.pre_damp,
          devices,
          gate,
          error_parts ~device_dim n,
          Float.min 1. n.Executor.error_p ))
      (Physical.schedule_array compiled) noise.Executor.op_noise
  in
  let final = windows noise.Executor.final_damp in
  let damp rho = List.iter (fun (d, kraus) -> Density.apply_kraus rho ~targets:[ d ] kraus) in
  let run_input k =
    let rng = Rng.make ~seed:(base_seed + (7919 * k)) in
    let input = State.random_supported rng ~dims ~allowed in
    let ideal = State.copy input in
    Array.iter (fun (_, devices, gate, _, _) -> State.apply ideal ~targets:devices gate) steps;
    let rho = Density.of_pure input in
    Array.iter
      (fun (pre, devices, gate, parts, p) ->
        damp rho pre;
        Density.apply_unitary rho ~targets:devices gate;
        if p > 0. && parts <> [] then Density.depolarize rho ~parts ~p)
      steps;
    damp rho final;
    Density.fidelity_with_pure rho ideal
  in
  let values = List.init inputs run_input in
  { mean_fidelity = List.fold_left ( +. ) 0. values /. float_of_int inputs; inputs }
