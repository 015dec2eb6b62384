open Waltz_linalg
open Waltz_qudit
open Waltz_noise
open Waltz_sim
open Waltz_runtime
module Telemetry = Waltz_telemetry.Telemetry
module Recorder = Waltz_telemetry.Recorder
module Clock = Waltz_telemetry.Clock
module Sanitize = Waltz_sanitizer.Sanitize

type config = { model : Noise.model; trajectories : int; base_seed : int }

let default_config = { model = Noise.default; trajectories = 50; base_seed = 2023 }

type result = { mean_fidelity : float; sem : float; trajectories : int }

let max_devices ~device_dim = if device_dim = 4 then 11 else 22

(* Hot-path telemetry handles, interned once at module init so per-op and
   per-trajectory instrumentation never hashes a metric name or takes the
   telemetry state mutex (see Metrics.cell / Metrics.series). The
   per-domain trajectory counter name depends on the recording domain, so
   its cell is interned lazily per domain. *)
let trajectories_cell = Telemetry.Metrics.cell "executor.trajectories"
let blocks_cell = Telemetry.Metrics.cell "executor.batch.blocks"
let lane_windows_cell = Telemetry.Metrics.cell "executor.batch.lane_windows"
let mask_divergence_cell = Telemetry.Metrics.cell "executor.batch.mask_divergence"
let kernel_memo_hit_cell = Telemetry.Metrics.cell "executor.kernel_memo.hit"
let kernel_memo_miss_cell = Telemetry.Metrics.cell "executor.kernel_memo.miss"
let block_us_series = Telemetry.Metrics.series "executor.block_us"

(* Per kernel class, in [Kernel.classes] order: the dispatch counter cells. *)
let dispatch_cells =
  Array.of_list
    (List.map (fun c -> Telemetry.Metrics.cell ("executor.kernel_dispatch." ^ c)) Kernel.classes)

let domain_traj_cell : Telemetry.Metrics.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Telemetry.Metrics.cell
        (Printf.sprintf "executor.domain.%d.trajectories" (Domain.self () :> int)))

(* An idle window resolved at plan time: the damping lambdas and the
   no-jump Kraus scales are pure functions of the window length and the
   noise model, so both are computed once per simulate call and only read
   by worker domains. *)
type damp_spec = { dwire : int; lambdas : float array; scales : float array }

(* What the noise model decides for one compiled op. *)
type op_noise = {
  error_p : float;
  error_parts : (int * Physical.noise_role) list;
  error_dims : int list;
  pre_damp : damp_spec list;
}

type noise_schedule = { op_noise : op_noise array; final_damp : damp_spec list }

(* The per-trajectory schedule: idle-window bookkeeping is identical for
   every trajectory, so start times, damping lambdas and Pauli radices are
   all resolved once per call and only read from the worker domains. No
   field grows with the amplitude count: the input support and the leakage
   subspace are Cartesian products of per-device level sets, held as
   device × level tables and walked by [State.iter_supported]. *)
type plan = {
  plan_dims : int array;  (** register shape the kernels were placed for *)
  plan_kernels : Kernel.t array;  (** the program's kernel memo, in op order *)
  plan_noise : noise_schedule;
  plan_allowed : bool array array;  (** initial-map support tables *)
  plan_leak : bool array array;
      (** final-map support tables: population outside them is leakage *)
  plan_dispatch : (Telemetry.Metrics.cell * int) array;
      (** per kernel class with ops: (dispatch counter cell, its ops). The
          dispatch tally per trajectory or block is a static function of
          the kernels, so the instrumented wrappers flush one increment per
          class instead of one per op application. *)
}

(* Devices in order of first appearance among the targets. Reversed-cons
   accumulation; the [List.mem] scan is over at most three devices. *)
let unique_devices targets =
  List.rev
    (List.fold_left
       (fun acc (d, _) -> if List.mem d acc then acc else d :: acc)
       [] targets)

(* The op's gate Kronecker-embedded in the joint space of its devices. The
   executor never applies it: it is the independent reference that [Exact],
   the leakage pass and the tests read, so it does not share [wire_of] with
   the kernels. *)
let lift_gate ~device_dim (op : Physical.op) =
  let devices = unique_devices op.Physical.targets in
  let wires_per_device = if device_dim = 4 then 2 else 1 in
  let total_wires = wires_per_device * List.length devices in
  let wire_of (d, s) =
    let rec index i = function
      | [] -> assert false
      | d' :: rest -> if d' = d then i else index (i + 1) rest
    in
    let base = wires_per_device * index 0 devices in
    if device_dim = 4 then base + s else base
  in
  let lifted =
    Embed.on_qubits ~n:total_wires
      ~targets:(List.map wire_of op.Physical.targets)
      op.Physical.gate
  in
  (devices, lifted)

(* Allowed levels per device under a placement map: a device's computational
   subspace depends on how many qubits it holds and in which slots. *)
let allowed_of_map ~device_dim ~device_count map =
  let allowed = Array.make device_count [ 0 ] in
  if device_dim = 2 then Array.iter (fun (d, _) -> allowed.(d) <- [ 0; 1 ]) map
  else begin
    let slots = Array.make device_count [] in
    Array.iter (fun (d, s) -> slots.(d) <- s :: slots.(d)) map;
    Array.iteri
      (fun d occupied ->
        allowed.(d) <-
          (match List.sort_uniq compare occupied with
          | [] -> [ 0 ]
          | [ 1 ] -> [ 0; 1 ]
          | [ 0 ] -> [ 0; 2 ]
          | _ -> [ 0; 1; 2; 3 ]))
      slots
  end;
  allowed

let initial_allowed (compiled : Physical.t) =
  allowed_of_map ~device_dim:compiled.Physical.device_dim
    ~device_count:compiled.Physical.device_count compiled.Physical.initial_map

(* Per-device bool lookup tables (level -> allowed) under a placement map,
   the form [State.iter_supported] walks. *)
let allowed_table (compiled : Physical.t) map =
  let device_dim = compiled.Physical.device_dim in
  Array.map
    (fun levels -> Array.init device_dim (fun l -> List.mem l levels))
    (allowed_of_map ~device_dim ~device_count:compiled.Physical.device_count map)

(* Payload-byte accounting shared with the static resource certificates
   (Waltz_analysis.Resource): the executor reports what it actually
   allocates through these formulas, and the certificate computes its
   bounds through the same ones, so "certified >= observed" can never be
   broken by the two sides counting different things. All figures are
   array payload bytes (8 per float or int word), headers excluded. *)
let block_plane_bytes ~dims ~cap = 2 * 2 * 8 * Array.fold_left ( * ) 1 dims * cap
let block_lane_bytes ~cap = 2 * 8 * cap
let block_workspace_bytes ~dims ~cap =
  block_plane_bytes ~dims ~cap + block_lane_bytes ~cap

type placement = { dims : int array; kernels : Kernel.t array; placed_bytes : int }

(* The register's two-level wire view: device d, slot s is wire 2d + s of
   a ququart register (level 2·q₀ + q₁, Sec. 3.1) and wire d of a qubit
   register, the bit order of [Equivalence.wire_bit]. It addresses the same
   flat amplitudes as the device view. *)
let wire_of ~device_dim (d, s) = if device_dim = 4 then (2 * d) + s else d

(* Compiles every op's own gate on its wires of the register's wire view.
   Ops that repeat one gate ([==]) on one target list share a kernel. *)
let place (compiled : Physical.t) =
  let device_dim = compiled.Physical.device_dim in
  let device_count = compiled.Physical.device_count in
  let wires = if device_dim = 4 then 2 * device_count else device_count in
  let wire_dims = Array.make wires 2 in
  let placed = Hashtbl.create 16 in
  let placed_bytes = ref 0 in
  let place_op (op : Physical.op) =
    let gate = op.Physical.gate in
    let targets = List.map (wire_of ~device_dim) op.Physical.targets in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt placed targets) in
    match List.assq_opt gate bucket with
    | Some kernel -> kernel
    | None ->
      let kernel = Kernel.compile ~dims:wire_dims ~targets gate in
      placed_bytes := !placed_bytes + Kernel.footprint_bytes kernel;
      Hashtbl.replace placed targets ((gate, kernel) :: bucket);
      kernel
  in
  (* Bound before the record: its fields are evaluated in no fixed order,
     and [placed_bytes] must be read after every op is placed. *)
  let kernels = Array.of_list (List.map place_op compiled.Physical.ops) in
  { dims = Array.make device_count device_dim; kernels; placed_bytes = !placed_bytes }

(* The program's placed kernels, memoized on the program with the op list
   and register shape they were placed for, like [Physical.schedule_array]:
   a copy [{ p with ops = ... }] carries [p]'s memo and places its own. The
   unsynchronized memo write is a benign race — concurrent first calls each
   place an equal array and use their own, and programs are otherwise
   immutable. The placed bytes are flushed once per memo build. *)
let program_kernels (compiled : Physical.t) =
  let ops = compiled.Physical.ops in
  let device_count = compiled.Physical.device_count
  and device_dim = compiled.Physical.device_dim in
  match compiled.Physical.kernel_memo with
  | Some m
    when m.Physical.kops == ops
         && Array.length m.Physical.kdims = device_count
         && Array.for_all (Int.equal device_dim) m.Physical.kdims ->
    Telemetry.Metrics.cell_incr kernel_memo_hit_cell;
    m
  | _ ->
    Telemetry.Metrics.cell_incr kernel_memo_miss_cell;
    let p = place compiled in
    Telemetry.Metrics.incr ~by:p.placed_bytes "executor.plan.bytes";
    let m = { Physical.kops = ops; kdims = p.dims; kernels = p.kernels } in
    compiled.Physical.kernel_memo <- Some m;
    m

(* Ops per kernel class, as (dispatch counter cell, ops) for each class
   with ops. *)
let dispatch_tally kernels =
  let per_class = Array.make (Array.length dispatch_cells) 0 in
  Array.iter
    (fun k ->
      let i = Kernel.class_index k in
      per_class.(i) <- per_class.(i) + 1)
    kernels;
  let tally = ref [] in
  Array.iteri (fun i n -> if n > 0 then tally := (dispatch_cells.(i), n) :: !tally) per_class;
  Array.of_list !tally

(* The model's half of a plan, read by the trajectories, by [Exact] and
   (through [Physical.idle_ns] and [Noise.gate_error]) by [Eps]. A damping
   window needs more than 1e-9 ns of idle time. *)
let noise_schedule ~model (compiled : Physical.t) =
  Noise.check model;
  let device_dim = compiled.Physical.device_dim in
  let window device dt =
    if dt > 1e-9 then begin
      let lambdas = Noise.damping_lambdas model ~d:device_dim ~dt_ns:dt in
      Some { dwire = device; lambdas; scales = State_block.damp_scales lambdas }
    end
    else None
  in
  let before, after = Physical.idle_ns compiled in
  let op_noise =
    Array.mapi
      (fun i ((op : Physical.op), _) ->
        let error_parts =
          List.filter_map
            (fun (p : Physical.device_part) ->
              match p.Physical.noise with
              | Physical.Quiet -> None
              | role -> Some (p.Physical.device, role))
            op.Physical.parts
        in
        { error_p =
            Float.max 0.
              (Noise.gate_error model ~fidelity:op.Physical.fidelity
                 ~touches_ww:op.Physical.touches_ww);
          error_parts;
          error_dims =
            List.map (fun (_, role) -> match role with Physical.P4 -> 4 | _ -> 2) error_parts;
          pre_damp =
            List.filter_map Fun.id
              (List.mapi
                 (fun k (p : Physical.device_part) -> window p.Physical.device before.(i).(k))
                 op.Physical.parts) })
      (Physical.schedule_array compiled)
  in
  { op_noise; final_damp = List.filter_map Fun.id (List.mapi window (Array.to_list after)) }

(* One simulate call's plan: the program's memoized kernels, plus the
   model's noise schedule, the only part that depends on it. *)
let plan ~model (compiled : Physical.t) =
  Telemetry.Span.with_ ~name:"executor/plan" @@ fun () ->
  let memo = program_kernels compiled in
  let kernels = memo.Physical.kernels in
  { plan_dims = memo.Physical.kdims;
    plan_kernels = kernels;
    plan_noise = noise_schedule ~model compiled;
    plan_allowed = allowed_table compiled compiled.Physical.initial_map;
    plan_leak = allowed_table compiled compiled.Physical.final_map;
    plan_dispatch = dispatch_tally kernels }

let embed_error ~device_dim role pauli =
  match (role, device_dim) with
  | Physical.P4, 4 -> pauli
  | Physical.P2 _, 2 -> pauli
  | Physical.P2 0, 4 -> Mat.kron pauli Gates.id2
  | Physical.P2 _, 4 -> Mat.kron Gates.id2 pauli
  | Physical.P4, _ -> invalid_arg "Executor: P4 errors need 4-level devices"
  | _ -> invalid_arg "Executor: inconsistent error role"

let apply_error ~device_dim blk k (n : op_noise) factors =
  List.iter2
    (fun (device, role) pauli ->
      State_block.apply_lane blk k ~targets:[ device ] (embed_error ~device_dim role pauli))
    n.error_parts factors

type detailed = { summary : result; mean_leakage : float; mean_error_draws : float }

(* Per-domain batched workspace: the ideal/noisy block pair over four
   grow-only planes, plus the per-lane reduction buffers. A domain keeps
   them across simulate calls; a call on another register shape or batch
   width lays its two blocks over the same planes when they hold [n * cap]
   floats and allocates exactly [n * cap] only when they are shorter (the
   lane buffers likewise against [cap]). A domain therefore holds at most
   the largest workspace it has run. Each block's inputs are drawn into
   [bideal] and copied into [bnoisy], so stale plane contents are never
   read. The arena token makes a block smuggled across a pool job boundary
   an OWN01 sanitizer finding. *)
type block_workspace = {
  bdims : int array;
  bcap : int;
  bideal : State_block.t;
  bnoisy : State_block.t;
  bplanes : float array array;  (* re, im under [bideal]; re, im under [bnoisy] *)
  bover : float array;  (* per-lane |⟨ideal|noisy⟩|² *)
  bleak : float array;  (* per-lane leakage *)
  bowner : Sanitize.Arena.token;  (* sanitizer ownership witness *)
}

let block_workspace_key : block_workspace option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let block_workspace_for dims ~cap =
  let slot = Domain.DLS.get block_workspace_key in
  match !slot with
  | Some ws when ws.bdims = dims && ws.bcap = cap ->
    Sanitize.Arena.touch ws.bowner;
    ws
  | prev ->
    let len = Array.fold_left ( * ) 1 dims * cap in
    (* Bytes allocated by this call, through the certificate's formulas:
       all of [block_workspace_bytes] on a fresh domain, 0 on reuse. *)
    let grown = ref 0 in
    let bplanes =
      match prev with
      | Some ws when Array.length ws.bplanes.(0) >= len -> ws.bplanes
      | _ ->
        grown := block_plane_bytes ~dims ~cap;
        Array.init 4 (fun _ -> Array.make len 0.)
    in
    let bover, bleak =
      match prev with
      | Some ws when Array.length ws.bover >= cap -> (ws.bover, ws.bleak)
      | _ ->
        grown := !grown + block_lane_bytes ~cap;
        (Array.make cap 0., Array.make cap 0.)
    in
    let bowner =
      match prev with
      | Some ws -> ws.bowner
      | None -> Sanitize.Arena.create "executor.block_workspace"
    in
    Sanitize.Arena.touch bowner;
    let ws =
      { bdims = Array.copy dims;
        bcap = cap;
        bideal = State_block.of_planes ~dims ~cap bplanes.(0) bplanes.(1);
        bnoisy = State_block.of_planes ~dims ~cap bplanes.(2) bplanes.(3);
        bplanes;
        bover;
        bleak;
        bowner }
    in
    if !grown > 0 then
      Telemetry.Metrics.incr ~by:!grown "executor.workspace.block_bytes";
    slot := Some ws;
    ws

(* Default lockstep batch width: the [--batch] / [WALTZ_BATCH] knob, else 8
   — wide enough to amortize index arithmetic over the lanes, small enough
   that the ideal/noisy block pair stays cache-resident for the fig9
   register sizes. Results are bit-identical at every width. The env read
   is memoized — the environment is fixed for the process lifetime, and the
   getenv scan otherwise shows up in short simulate calls. A racing first
   call recomputes the same value, so the bare Atomic is safe. *)
let default_batch_memo = Atomic.make 0

let default_batch () =
  match Atomic.get default_batch_memo with
  | 0 ->
    let b =
      match Sys.getenv_opt "WALTZ_BATCH" with
      | Some s ->
        (match int_of_string_opt (String.trim s) with
        | Some b when b >= 1 -> min b 1024
        | _ -> 8)
      | None -> 8
    in
    Atomic.set default_batch_memo b;
    b
  | b -> b

let simulate_detailed_body ~config ?domains ?batch (compiled : Physical.t) =
  let device_dim = compiled.Physical.device_dim in
  if compiled.Physical.device_count > max_devices ~device_dim then
    invalid_arg
      (Printf.sprintf "Executor.simulate: %d devices exceeds the %d-device memory guard"
         compiled.Physical.device_count (max_devices ~device_dim));
  let model = config.model in
  let plan = plan ~model compiled in
  (* The modeled schedule duration this run executes — the certificate
     checker's duration oracle (the COST makespan interval must contain
     it). A gauge, so it reflects the last simulate in the readback
     window. *)
  if Telemetry.metrics_enabled () then
    Telemetry.Metrics.set_gauge "executor.schedule_ns"
      (Physical.total_duration compiled);
  let dims = plan.plan_dims in
  let domains =
    match domains with Some d -> max 1 d | None -> Pool.default_domains ()
  in
  (* Never allocate wider planes than there are trajectories: a 2-trajectory
     run with the default width would otherwise sweep 8-lane-stride planes
     with 6 dead lanes. Lane k's stream depends only on its trajectory
     index, so clamping changes no statistics. The floor of one keeps a
     zero-trajectory (plan-only) call well-defined: it runs no block. *)
  let batch = match batch with Some b -> max 1 b | None -> default_batch () in
  let batch = max 1 (min batch config.trajectories) in
  (* One block of [batch] trajectories in lockstep over the SoA planes.
     Lane k of block j is trajectory j*batch + k, with its own split-stream
     RNG seeded from its trajectory index alone, so the per-lane draw order
     (input gaussians, per-window jump choices, per-op error draws) is the
     same at every batch width — the flattened samples are bit-identical
     at every batch width and domain count. Returns (per-lane samples,
     lanes that diverged from lockstep, per-lane stochastic windows). *)
  let run_block_raw j =
    let b0 = j * batch in
    let live = min batch (config.trajectories - b0) in
    let ws = block_workspace_for dims ~cap:batch in
    State_block.set_live ws.bideal live;
    let rngs =
      Array.init live (fun i -> Rng.make ~seed:(config.base_seed + (7919 * (b0 + i))))
    in
    (* The inputs are drawn into the ideal lanes and copied (with the live
       count) into the noisy ones before the ideal pass overwrites them. *)
    State_block.fill_random_supported ws.bideal rngs ~allowed:plan.plan_allowed;
    State_block.assign ~dst:ws.bnoisy ~src:ws.bideal;
    (* Per op, one dispatch on the plan-time kernel class. Dispatch counters
       are flushed per block from [plan_dispatch], so the apply loops carry
       no instrumentation at all. *)
    Array.iter (State_block.apply_kernel ws.bideal) plan.plan_kernels;
    let draws = Array.make live 0 in
    let windows = ref 0 and diverged = ref 0 in
    let damp_block specs =
      List.iter
        (fun { dwire; lambdas; scales } ->
          windows := !windows + live;
          diverged :=
            !diverged + State_block.damp_with ws.bnoisy rngs ~wire:dwire ~lambdas ~scales)
        specs
    in
    Array.iteri
      (fun i p ->
        damp_block p.pre_damp;
        State_block.apply_kernel ws.bnoisy plan.plan_kernels.(i);
        if p.error_parts <> [] then begin
          windows := !windows + live;
          for k = 0 to live - 1 do
            match Noise.draw_error rngs.(k) ~dims:p.error_dims ~p:p.error_p with
            | None -> ()
            | Some factors ->
              incr diverged;
              apply_error ~device_dim ws.bnoisy k p factors;
              draws.(k) <- draws.(k) + 1
          done
        end)
      plan.plan_noise.op_noise;
    damp_block plan.plan_noise.final_damp;
    State_block.overlap2_into ws.bover ws.bideal ws.bnoisy;
    State_block.leakage_into ws.bleak ws.bnoisy ~allowed:plan.plan_leak;
    (Array.init live (fun k -> (ws.bover.(k), ws.bleak.(k), draws.(k))), !diverged, !windows)
  in
  (* Telemetry does not touch any lane's RNG stream or the reduction order,
     so the statistics are bit-identical with it on or off. *)
  let flush_block_metrics samples ~diverged ~windows dur =
    Telemetry.Metrics.series_observe block_us_series dur;
    let n = Array.length samples in
    Telemetry.Metrics.cell_add blocks_cell 1;
    Telemetry.Metrics.cell_add trajectories_cell n;
    Telemetry.Metrics.cell_add (Domain.DLS.get domain_traj_cell) n;
    Telemetry.Metrics.cell_add lane_windows_cell windows;
    Telemetry.Metrics.cell_add mask_divergence_cell diverged;
    (* Each plan op was dispatched twice per live lane: the ideal pass and
       the noisy pass. *)
    Array.iter
      (fun (c, cnt) -> Telemetry.Metrics.cell_add c (2 * cnt * n))
      plan.plan_dispatch
  in
  let run_block j =
    if not (Telemetry.active ()) then
      let samples, _, _ = run_block_raw j in
      samples
    else begin
      (* Hand-inlined span: two unboxed clock reads shared by the ring
         events and the duration histogram, then the counter flush — no
         closure, tuple or boxed-float allocation on the way. *)
      let armed = Recorder.armed () in
      let start_us = Clock.now_us () in
      if armed then Recorder.begin_at "trajectory-block" [] start_us;
      match run_block_raw j with
      | samples, diverged, windows ->
        let end_us = Clock.now_us () in
        if armed then Recorder.end_at "trajectory-block" end_us;
        if Telemetry.metrics_enabled () then
          flush_block_metrics samples ~diverged ~windows (end_us -. start_us);
        samples
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        if armed then Recorder.end_at "trajectory-block" (Clock.now_us ());
        Printexc.raise_with_backtrace exn bt
    end
  in
  let nblocks = (config.trajectories + batch - 1) / batch in
  let blocks =
    if domains <= 1 || nblocks <= 1 then Array.init nblocks run_block
    else Pool.map_array ~domains (Pool.shared ~domains ()) ~n:nblocks ~f:run_block
  in
  let samples = Array.make config.trajectories (0., 0., 0) in
  Array.iteri (fun j arr -> Array.blit arr 0 samples (j * batch) (Array.length arr)) blocks;
  let n = float_of_int config.trajectories in
  let mean = Array.fold_left (fun a (f, _, _) -> a +. f) 0. samples /. n in
  let var =
    Array.fold_left (fun a (f, _, _) -> a +. ((f -. mean) *. (f -. mean))) 0. samples
    /. Float.max 1. (n -. 1.)
  in
  let summary =
    { mean_fidelity = mean; sem = sqrt (var /. n); trajectories = config.trajectories }
  in
  let mean_leakage = Array.fold_left (fun a (_, l, _) -> a +. l) 0. samples /. n in
  let mean_error_draws =
    Array.fold_left (fun a (_, _, d) -> a +. float_of_int d) 0. samples /. n
  in
  { summary; mean_leakage; mean_error_draws }

let simulate_detailed ?(config = default_config) ?domains ?batch (compiled : Physical.t) =
  if config.trajectories < 0 then
    invalid_arg "Executor.simulate: trajectories must be >= 0";
  (* The span carries no args: building and keeping them per call would cost
     more than its ring events, against the <= 5 % overhead budget of the
     always-on plane (the compile span before it names the strategy). The
     flight-recorder bracket dumps the per-domain rings when a trajectory
     raises (then re-raises); disarmed it is exactly the body. *)
  Telemetry.Span.with_ ~name:"executor/simulate" (fun () ->
      Recorder.with_crash_dump ~label:"simulate" (fun () ->
          simulate_detailed_body ~config ?domains ?batch compiled))

let simulate ?config ?domains ?batch compiled =
  (match config with
  | Some c -> simulate_detailed ~config:c ?domains ?batch compiled
  | None -> simulate_detailed ?domains ?batch compiled)
    .summary
