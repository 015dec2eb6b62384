open Waltz_noise

type breakdown = {
  gate_eps : float;
  coherence_eps : float;
  total_eps : float;
  duration_ns : float;
}

let level_of_occupancy = function 0 -> 0 | 1 -> 1 | _ -> 3

let op_success model (op : Physical.op) =
  Float.max 0.
    (1. -. Noise.gate_error model ~fidelity:op.Physical.fidelity ~touches_ww:op.Physical.touches_ww)

(* Every device's timeline in schedule order, from [Physical.idle_ns]:
   [segment d ~occ ~dt ~busy] for each idle window longer than 0, at the
   occupancy the device holds, and for each op the device is under, at the
   op's worst occupancy. *)
let iter_segments (compiled : Physical.t) segment =
  let before, after = Physical.idle_ns compiled in
  let occ = Array.make compiled.Physical.device_count 0 in
  Array.iter (fun (d, _) -> occ.(d) <- occ.(d) + 1) compiled.Physical.initial_map;
  let idle d dt = if dt > 0. then segment d ~occ:occ.(d) ~dt ~busy:false in
  Array.iteri
    (fun i ((op : Physical.op), _) ->
      List.iteri
        (fun k (p : Physical.device_part) ->
          let d = p.Physical.device in
          idle d before.(i).(k);
          segment d
            ~occ:(max p.Physical.occ_before p.Physical.occ_after)
            ~dt:op.Physical.duration_ns ~busy:true;
          occ.(d) <- p.Physical.occ_after)
        op.Physical.parts)
    (Physical.schedule_array compiled);
  Array.iteri idle after

let survival model ~occ ~dt =
  Noise.decoherence_survival model ~max_level:(level_of_occupancy occ) ~dt_ns:dt

let estimate ?(model = Noise.default) (compiled : Physical.t) =
  Noise.check model;
  let gate_eps =
    Array.fold_left
      (fun acc (op, _) -> acc *. op_success model op)
      1. (Physical.schedule_array compiled)
  in
  let coherence = ref 1. in
  iter_segments compiled (fun _ ~occ ~dt ~busy:_ ->
      coherence := !coherence *. survival model ~occ ~dt);
  let coherence_eps = !coherence in
  { gate_eps;
    coherence_eps;
    total_eps = gate_eps *. coherence_eps;
    duration_ns = Physical.total_duration compiled }

type label_report = {
  op_label : string;
  count : int;
  total_ns : float;
  error_budget : float;
}

let label_breakdown ?(model = Noise.default) (compiled : Physical.t) =
  Noise.check model;
  let tbl : (string, int * float * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (op : Physical.op) ->
      let c, t, e =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl op.Physical.label)
      in
      Hashtbl.replace tbl op.Physical.label
        (c + 1, t +. op.Physical.duration_ns, e +. (1. -. op_success model op)))
    compiled.Physical.ops;
  Hashtbl.fold
    (fun op_label (count, total_ns, error_budget) acc ->
      { op_label; count; total_ns; error_budget } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare b.total_ns a.total_ns with
         | 0 -> compare a.op_label b.op_label
         | c -> c)

type device_report = {
  device : int;
  busy_ns : float;
  idle_ns : float;
  encoded_ns : float;
  survival : float;
}

let device_breakdown ?(model = Noise.default) (compiled : Physical.t) =
  Noise.check model;
  let nd = compiled.Physical.device_count in
  let busy = Array.make nd 0. and idle = Array.make nd 0. and encoded = Array.make nd 0. in
  let survival_of = Array.make nd 1. in
  iter_segments compiled (fun d ~occ ~dt ~busy:b ->
      if b then busy.(d) <- busy.(d) +. dt else idle.(d) <- idle.(d) +. dt;
      if occ >= 2 then encoded.(d) <- encoded.(d) +. dt;
      survival_of.(d) <- survival_of.(d) *. survival model ~occ ~dt);
  List.init nd (fun device ->
      { device;
        busy_ns = busy.(device);
        idle_ns = idle.(device);
        encoded_ns = encoded.(device);
        survival = survival_of.(device) })
