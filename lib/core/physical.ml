open Waltz_linalg

type noise_role = P2 of int | P4 | Quiet

type device_part = { device : int; noise : noise_role; occ_before : int; occ_after : int }

type op = {
  label : string;
  parts : device_part list;
  targets : (int * int) list;
  gate : Mat.t;
  duration_ns : float;
  fidelity : float;
  touches_ww : bool;
}

type kernel_memo = {
  kops : op list;
  kdims : int array;
  kernels : Waltz_sim.Kernel.t array;
}

type schedule_memo = {
  for_ops : op list;
  starts : (op * float) array;
  idle : float array array * float array;
}

type t = {
  strategy : Strategy.t;
  n_logical : int;
  device_count : int;
  device_dim : int;
  ops : op list;
  initial_map : (int * int) array;
  final_map : (int * int) array;
  mutable schedule_memo : schedule_memo option;
  mutable kernel_memo : kernel_memo option;
}

let make_op ~label ~parts ~targets ~gate ~entry ~touches_ww =
  let expected = 1 lsl List.length targets in
  if gate.Mat.rows <> expected || gate.Mat.cols <> expected then
    invalid_arg
      (Printf.sprintf "Physical.make_op %s: gate is %dx%d but %d targets given" label
         gate.Mat.rows gate.Mat.cols (List.length targets));
  let devs = List.map (fun p -> p.device) parts in
  if List.length (List.sort_uniq compare devs) <> List.length devs then
    invalid_arg
      (Printf.sprintf "Physical.make_op %s: duplicate device parts (devices %s)" label
         (String.concat ", " (List.map string_of_int devs)));
  List.iteri
    (fun i (d, s) ->
      if not (List.mem d devs) then
        invalid_arg
          (Printf.sprintf
             "Physical.make_op %s: target %d is (device %d, slot %d) but the op's parts \
              cover only devices %s"
             label i d s
             (String.concat ", " (List.map string_of_int devs))))
    targets;
  { label;
    parts;
    targets;
    gate;
    duration_ns = entry.Waltz_qudit.Calibration.duration_ns;
    fidelity = entry.Waltz_qudit.Calibration.fidelity;
    touches_ww }

let makespan starts =
  Array.fold_left (fun acc (op, start) -> Float.max acc (start +. op.duration_ns)) 0. starts

(* The ASAP schedule is a pure function of [ops], so it is computed once and
   memoized on the program, with the op list it was computed from: a copy
   [{ p with ops = ... }] carries [p]'s memo and must compute its own. The
   walk that starts each op when its devices are ready also records how
   long each of them sat idle: the one idle-window walk that the
   trajectories' damping, the exact oracle and the coherence EPS read. The
   unsynchronized memo write is a benign race — every computation yields
   the same arrays and programs are otherwise immutable. *)
let schedule_memo t =
  match t.schedule_memo with
  | Some m when m.for_ops == t.ops -> m
  | _ ->
    let ready = Hashtbl.create 16 in
    let time_of d = Option.value ~default:0. (Hashtbl.find_opt ready d) in
    let idle = ref [] in
    let starts =
      Array.of_list
        (List.map
           (fun (op : op) ->
             let start =
               List.fold_left (fun acc p -> Float.max acc (time_of p.device)) 0. op.parts
             in
             let waited = List.map (fun p -> start -. time_of p.device) op.parts in
             idle := Array.of_list waited :: !idle;
             List.iter
               (fun p -> Hashtbl.replace ready p.device (start +. op.duration_ns))
               op.parts;
             (op, start))
           t.ops)
    in
    let total = makespan starts in
    let after = Array.init t.device_count (fun d -> total -. time_of d) in
    let m = { for_ops = t.ops; starts; idle = (Array.of_list (List.rev !idle), after) } in
    t.schedule_memo <- Some m;
    m

let schedule_array t = (schedule_memo t).starts
let schedule t = Array.to_list (schedule_array t)
let total_duration t = makespan (schedule_array t)
let idle_ns t = (schedule_memo t).idle

let op_count t = List.length t.ops
let two_device_op_count t = List.length (List.filter (fun op -> List.length op.parts >= 2) t.ops)

let summary t =
  Printf.sprintf "%s: %d ops (%d multi-device), duration %.0f ns" t.strategy.Strategy.name
    (op_count t) (two_device_op_count t) (total_duration t)

let pp_ops ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun (op, start) ->
      Format.fprintf ppf "%8.0f ns  %-14s on %s@,"
        start op.label
        (String.concat ","
           (List.map (fun (d, s) -> Printf.sprintf "%d.%d" d s) op.targets)))
    (schedule_array t);
  Format.fprintf ppf "@]"

(* Canonical full-precision serialization: every float is printed with %h
   (hex, lossless), so two programs render identically iff they are
   bit-identical — the compiler's byte-identity tests and `make
   compile-smoke` diff these strings. *)
let dump_op buf i (op : op) =
  Buffer.add_string buf
    (Printf.sprintf "op %d %s ww=%b dur=%h fid=%h\n" i op.label op.touches_ww op.duration_ns
       op.fidelity);
  List.iter
    (fun (p : device_part) ->
      Buffer.add_string buf
        (Printf.sprintf "  part d=%d occ=%d->%d noise=%s\n" p.device p.occ_before p.occ_after
           (match p.noise with
           | P2 s -> Printf.sprintf "P2:%d" s
           | P4 -> "P4"
           | Quiet -> "Q")))
    op.parts;
  List.iter (fun (d, s) -> Buffer.add_string buf (Printf.sprintf "  tgt %d.%d\n" d s)) op.targets;
  let g = op.gate in
  Buffer.add_string buf (Printf.sprintf "  gate %dx%d" g.Mat.rows g.Mat.cols);
  for r = 0 to g.Mat.rows - 1 do
    for c = 0 to g.Mat.cols - 1 do
      let z = Mat.get g r c in
      Buffer.add_string buf (Printf.sprintf " %h,%h" z.Complex.re z.Complex.im)
    done
  done;
  Buffer.add_char buf '\n'

let dump t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "program %s n=%d devs=%d dim=%d ops=%d\n" t.strategy.Strategy.name
       t.n_logical t.device_count t.device_dim (List.length t.ops));
  Array.iteri
    (fun q (d, s) -> Buffer.add_string buf (Printf.sprintf "  init %d->%d.%d\n" q d s))
    t.initial_map;
  Array.iteri
    (fun q (d, s) -> Buffer.add_string buf (Printf.sprintf "  final %d->%d.%d\n" q d s))
    t.final_map;
  List.iteri (dump_op buf) t.ops;
  Buffer.contents buf
