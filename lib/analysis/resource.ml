(* Static resource certification over compiled programs: sound per-run
   bounds on memory, modeled duration and pool seats, cross-checked against
   telemetry after a run. See resource.mli for the contract and
   doc/ANALYSIS.md for the soundness argument and the RES rule catalog. *)

open Waltz_core
module Telemetry = Waltz_telemetry.Telemetry
module Metrics = Telemetry.Metrics
module Diagnostic = Waltz_verify.Diagnostic
module Kernel = Waltz_sim.Kernel

type interval = { lo : float; hi : float }
type run_shape = { trajectories : int; batch : int; domains : int }

type t = {
  strategy : string;
  device_count : int;
  device_dim : int;
  dim : int;
  ops : int;
  shape : run_shape;
  program_bytes : int;
  state_bytes : int;
  block_workspace_bytes : int;
  scratch_bytes : int;
  plan_bytes : int;
  plan_table_bytes : int;
  cache_bytes : int;
  peak_bytes : int;
  schedule_ns : float;
  total_ns : interval;
  seat_demand : int;
  queue_depth : int;
  dispatch_mix : (string * int) list;
}

let mat_bytes (m : Waltz_linalg.Mat.t) = 2 * 8 * m.Waltz_linalg.Mat.rows * m.Waltz_linalg.Mat.cols

exception Too_large

(* Checked arithmetic on the nonnegative counts that grow with the register
   or the run shape: past [max_int] the certificate is refused rather than
   wrapped into a bound that is negative or too small. *)
let ( +! ) a b = if a > max_int - b then raise Too_large else a + b
let ( *! ) a b = if a <> 0 && b > max_int / a then raise Too_large else a * b

let certify ?(trajectories = 1) ?(batch = 1) ?(domains = 1) (p : Physical.t) =
  let trajectories = max 1 trajectories and batch = max 1 batch and domains = max 1 domains in
  let device_dim = p.Physical.device_dim in
  let device_count = p.Physical.device_count in
  let nops = List.length p.Physical.ops in
  (* The amplitude count and the state bytes first: placement computes
     strides from the count, and they must not wrap either. *)
  let dim = Array.fold_left ( *! ) 1 (Array.make device_count device_dim) in
  let state_bytes = 2 * 8 *! dim in
  (* Dispatch mix and plan-resident bytes: the executor's own placement,
     built fresh so the program's kernel memo is neither read nor written.
     The mix is the exact [plan_dispatch] the instrumented wrappers will
     flush, and the placed bytes are what a memo build observes. *)
  let placement = Executor.place p in
  let dims = placement.Executor.dims in
  let mix = Array.make (List.length Kernel.classes) 0 in
  let g_max = ref 1 in
  Array.iter
    (fun kernel ->
      let cls = Kernel.class_index kernel in
      mix.(cls) <- mix.(cls) + 1;
      g_max := max !g_max (Kernel.dim_targets kernel))
    placement.Executor.kernels;
  let plan_bytes = placement.Executor.placed_bytes in
  (* Every class of Kernel's catalog, in its order, so serializations have
     a fixed shape. *)
  let dispatch_mix = List.mapi (fun i cls -> (cls, mix.(i))) Kernel.classes in
  (* Per-call plan tables (support and leakage level tables, damping specs,
     dispatch cells): each bound covers the corresponding structure in the
     executor's [plan] record with room to spare. None grows with the
     amplitude count. *)
  let plan_table_bytes =
    (2 * 8 * device_count * device_dim) (* allowed-level tables, both maps *)
    + (2 * 8 * device_dim * (nops + device_count)) (* damp lambdas+scales *)
    + (16 * nops) (* dispatch tally pairs *)
  in
  let program_bytes =
    List.fold_left (fun acc (op : Physical.op) -> acc + mat_bytes op.Physical.gate) 0
      p.Physical.ops
    + (2 * 2 * 8 * p.Physical.n_logical) (* initial/final placement maps *)
  in
  (* Run-shape folding mirrors the executor's clamps exactly: the batch
     never exceeds the trajectory count, the queue holds one item per
     lockstep block, and the parallel path only engages with more than one
     block and more than one domain. *)
  let batch_eff = min batch trajectories in
  let queue_depth = 1 + ((trajectories - 1) / batch_eff) in
  let seat_demand = if domains > 1 && queue_depth > 1 then min domains queue_depth else 1 in
  (* The executor's formula, once the same sum in checked arithmetic has
     shown that it does not wrap. *)
  let block_workspace_bytes =
    let (_ : int) = (2 *! state_bytes *! batch_eff) +! (2 * 8 *! batch_eff) in
    Executor.block_workspace_bytes ~dims ~cap:batch_eff
  in
  (* Per-domain scratch arena: gather buffers scale with the widest
     subspace gathered, per lane (error injection) and × lanes (batched
     kernels); damping scratch scales with device_dim and lanes. Kernels act
     on slot wires, but error injection gathers a whole device, so the
     widest subspace is at least [device_dim]. The flat constant absorbs the
     odometer/int slots. *)
  let g_max = max !g_max device_dim in
  let scratch_bytes =
    8
    *! ((2 * g_max) +! (2 * g_max *! batch_eff) +! (2 * device_dim) +! (2 *! batch_eff)
       +! 64)
  in
  let peak_bytes =
    program_bytes + plan_bytes + plan_table_bytes
    +! (seat_demand *! (block_workspace_bytes +! scratch_bytes))
  in
  (* Placed kernels live in their program's memo, so the program cache
     holds them with the programs; the per-call tables are not kept. The
     cache's ops budget holds [budget / ops] programs of this size, and
     always at least one. *)
  let cache_bytes =
    max 1 (Compile.program_cache_budget / max 1 nops) * (program_bytes + plan_bytes)
  in
  (* Modeled duration: one schedule replay takes the memoized ASAP
     makespan, the figure the executor reports as its schedule gauge. Each
     trajectory replays the schedule twice (ideal and noisy pass); the worst
     case runs every trajectory serially, the best spreads them across the
     certified seats. *)
  let schedule_ns = Physical.total_duration p in
  let passes = 2. *. float_of_int trajectories in
  let total_ns =
    { lo = schedule_ns *. passes /. float_of_int seat_demand; hi = schedule_ns *. passes }
  in
  { strategy = p.Physical.strategy.Strategy.name;
    device_count;
    device_dim;
    dim;
    ops = nops;
    shape = { trajectories; batch; domains };
    program_bytes;
    state_bytes;
    block_workspace_bytes;
    scratch_bytes;
    plan_bytes;
    plan_table_bytes;
    cache_bytes;
    peak_bytes;
    schedule_ns;
    total_ns;
    seat_demand;
    queue_depth;
    dispatch_mix }

type budget = { limit_bytes : int option; limit_ms : float option }

let check_budget t { limit_bytes; limit_ms } =
  let diags = ref [] in
  (match limit_bytes with
  | Some limit when t.peak_bytes > limit ->
    diags :=
      Diagnostic.error "RES01"
        (Printf.sprintf
           "certified peak %d bytes exceeds the %d-byte admission budget (%s, %d ops, %d \
            seats)"
           t.peak_bytes limit t.strategy t.ops t.seat_demand)
      :: !diags
  | _ -> ());
  (match limit_ms with
  | Some limit when t.total_ns.hi /. 1e6 > limit ->
    diags :=
      Diagnostic.error "RES01"
        (Printf.sprintf
           "certified worst-case duration %.3f ms exceeds the %.3f ms admission budget \
            (%d trajectories x %.1f ns)"
           (t.total_ns.hi /. 1e6) limit t.shape.trajectories t.schedule_ns)
      :: !diags
  | _ -> ());
  List.rev !diags

(* Relative containment slack for the duration cross-check, the tolerance
   SCHED02 allows between total_duration and its own ASAP replay. *)
let rel_slack = 1e-6

let check_observed ?(cache_blowup_ratio = 4.) t =
  let diags = ref [] in
  let res02 fmt = Printf.ksprintf (fun m -> diags := Diagnostic.error "RES02" m :: !diags) fmt in
  (* Byte bounds hold against an empty readback trivially (all counters 0),
     so the <= checks run unconditionally; the exact-equality checks are
     gated on the trajectory counter matching the certified shape (metrics
     enabled for the whole run). *)
  let obs_traj = Metrics.counter "executor.trajectories" in
  if obs_traj > 0 && obs_traj <> t.shape.trajectories then
    res02 "observed %d trajectories but the certificate covers %d" obs_traj
      t.shape.trajectories;
  if obs_traj = t.shape.trajectories then
    List.iter
      (fun (cls, n) ->
        let expected = 2 * n * t.shape.trajectories in
        let obs = Metrics.counter ("executor.kernel_dispatch." ^ cls) in
        if obs <> expected then
          res02 "kernel class %s dispatched %d times, certificate predicts %d (2 passes x \
                 %d ops x %d trajectories)"
            cls obs expected n t.shape.trajectories)
      t.dispatch_mix;
  let bound name obs limit =
    if obs > limit then
      res02 "%s observed %d payload bytes, certified bound is %d" name obs limit
  in
  bound "block workspace"
    (Metrics.counter "executor.workspace.block_bytes")
    (t.block_workspace_bytes * t.seat_demand);
  bound "plan residency" (Metrics.counter "executor.plan.bytes") t.plan_bytes;
  (match Metrics.gauge "executor.schedule_ns" with
  | Some v ->
    let slack = rel_slack *. Float.max 1. (Float.abs t.schedule_ns) in
    if not (Float.abs (v -. t.schedule_ns) <= slack) then
      res02 "executed schedule of %.3f ns differs from the certified %.3f ns makespan"
        v t.schedule_ns
  | None -> ());
  (* Pool-shape checks only make sense when the readback window holds
     exactly the certified job. *)
  if Metrics.counter "pool.jobs" = 1 then begin
    (match Metrics.gauge "pool.queue_depth" with
    | Some q ->
      if q > float_of_int t.queue_depth then
        res02 "pool queue depth %.0f exceeds the certified %d items" q t.queue_depth
    | None -> ());
    let offered = Metrics.counter "pool.seats.offered" in
    if offered > t.shape.domains - 1 then
      res02 "pool offered %d seats, certificate caps extra workers at %d" offered
        (t.shape.domains - 1)
  end;
  if float_of_int t.cache_bytes
     > cache_blowup_ratio *. float_of_int (max 1 t.peak_bytes)
  then
    diags :=
      Diagnostic.warning "RES03"
        (Printf.sprintf
           "worst-case cache residency %d bytes is %.1fx the live peak of %d bytes \
            (threshold %.1fx): eviction pressure, not the program, will drive memory"
           t.cache_bytes
           (float_of_int t.cache_bytes /. float_of_int (max 1 t.peak_bytes))
           t.peak_bytes cache_blowup_ratio)
      :: !diags;
  List.rev !diags

let mix_to_string mix =
  String.concat " "
    (List.filter_map
       (fun (cls, n) -> if n = 0 then None else Some (Printf.sprintf "%s:%d" cls n))
       mix)

let summary t =
  Diagnostic.info "RES00"
    (Printf.sprintf
       "certified %s at %d trajectories x batch %d x %d domains: peak %d bytes (plan %d, \
        workspace %d/domain, caches <= %d), schedule %.1f ns, worst-case %.1f ns total, \
        %d seats over %d items; dispatch %s"
       t.strategy t.shape.trajectories t.shape.batch t.shape.domains t.peak_bytes
       t.plan_bytes
       (t.block_workspace_bytes + t.scratch_bytes)
       t.cache_bytes t.schedule_ns t.total_ns.hi t.seat_demand
       t.queue_depth (mix_to_string t.dispatch_mix))

let dump t =
  let b = Buffer.create 512 in
  Printf.bprintf b "resource-certificate v5\n";
  Printf.bprintf b "strategy %s devices %d dim %d n %d ops %d\n" t.strategy
    t.device_count t.device_dim t.dim t.ops;
  Printf.bprintf b "shape trajectories %d batch %d domains %d\n" t.shape.trajectories
    t.shape.batch t.shape.domains;
  Printf.bprintf b
    "bytes program %d state %d block %d scratch %d plan %d tables %d caches %d peak %d\n"
    t.program_bytes t.state_bytes t.block_workspace_bytes t.scratch_bytes t.plan_bytes
    t.plan_table_bytes t.cache_bytes t.peak_bytes;
  Printf.bprintf b "schedule_ns %h total_ns %h %h\n" t.schedule_ns t.total_ns.lo
    t.total_ns.hi;
  Printf.bprintf b "pool seats %d queue %d\n" t.seat_demand t.queue_depth;
  List.iter (fun (cls, n) -> Printf.bprintf b "dispatch %s %d\n" cls n) t.dispatch_mix;
  Buffer.contents b
