open Waltz_arch
module Telemetry = Waltz_telemetry.Telemetry

(* Routing-volume counters for the stats report (see doc/OBSERVABILITY.md):
   SWAP steps taken and shortest-path searches run. *)
let router_steps_cell = Telemetry.Metrics.cell "compile.router_steps"
let bfs_calls_cell = Telemetry.Metrics.cell "compile.bfs_calls"

let dist layout d1 d2 = Topology.distance (Layout.topology layout) d1 d2

let adjacent_or_same layout a b =
  let da = Layout.device_of layout a and db = Layout.device_of layout b in
  da = db || Topology.are_adjacent (Layout.topology layout) da db

(* The slots of [device] the mover may land on, as an iterator (no list
   allocation): slot 0 for bare, slot 1 for intermediate, both for packed. *)
let iter_candidate_slots layout device f =
  match (Layout.strategy layout).Strategy.encoding with
  | Strategy.Bare -> f device 0
  | Strategy.Intermediate -> f device 1
  | Strategy.Packed ->
    f device 0;
    f device 1

(* Blocked/frozen membership via the layout's epoch-stamped scratch:
   [begin_masks] stamps the lists once per routing call, then each test is
   one array read instead of a [List.mem] walk per candidate. *)
let begin_masks layout ~blocked ~frozen =
  let sc = Layout.scratch layout in
  sc.Layout.mask_epoch <- sc.Layout.mask_epoch + 1;
  let e = sc.Layout.mask_epoch in
  List.iter (fun d -> sc.Layout.blocked_stamp.(d) <- e) blocked;
  List.iter (fun q -> sc.Layout.frozen_stamp.(q) <- e) frozen;
  sc

let blocked_device (sc : Layout.scratch) d = sc.Layout.blocked_stamp.(d) = sc.Layout.mask_epoch
let frozen_qubit (sc : Layout.scratch) q = sc.Layout.frozen_stamp.(q) = sc.Layout.mask_epoch

(* The paper's disruption cost for exchanging the occupants of u and v,
   where [i] is the moving qubit and [j] the displaced occupant (if any).
   The loop body — in particular the order of the float additions — must
   stay exactly as written: the interaction weights are not all
   representable (2/3, 0.25), so re-associating the sum would change
   tie-breaking between equal-cost candidates and hence the emitted
   program. The speedup comes from the inputs instead: the incrementally
   maintained [Layout.device_index] aggregate and hoisted distance-table
   rows replace an option unpack and two bounds-checked 2D lookups per
   neighbour. *)
let disruption layout i j (du : int) (dv : int) =
  if not (Layout.strategy layout).Strategy.disruption_aware_routing then 0.
  else begin
    let w = Layout.weights layout in
    let n = Layout.n_logical layout in
    let topo = Layout.topology layout in
    let didx = Layout.device_index layout in
    let row_u = Topology.dist_row topo du and row_v = Topology.dist_row topo dv in
    let wi = w.(i) in
    let ji, wj = match j with Some j -> (j, w.(j)) | None -> (-1, wi) in
    let acc = ref 0. in
    for k = 0 to n - 1 do
      if k <> i && k <> ji then begin
        let dk = didx.(k) in
        if dk >= 0 then begin
          let dvk = float_of_int row_v.(dk) and duk = float_of_int row_u.(dk) in
          acc := !acc +. (wi.(k) *. (dvk -. duk));
          if ji >= 0 then acc := !acc +. (wj.(k) *. (duk -. dvk))
        end
      end
    done;
    !acc
  end

let one_step layout ~blocked ~frozen ~mover ~goal_device ~max_delta =
  let du, su = Layout.pos layout mover in
  let topo = Layout.topology layout in
  let goal_row = Topology.dist_row topo goal_device in
  let d0 = goal_row.(du) in
  let sc = begin_masks layout ~blocked ~frozen in
  let intermediate = (Layout.strategy layout).Strategy.encoding = Strategy.Intermediate in
  (* Enumerate candidates in the same neighbour/slot order as before, but
     score each exactly once: the old fold re-ran the incumbent's O(n)
     disruption on every comparison. Ties keep the earlier candidate. *)
  let have = ref false in
  let best_d = ref (-1) and best_s = ref (-1) and best_score = ref 0. in
  List.iter
    (fun nd ->
      if
        (not (blocked_device sc nd))
        (* In the intermediate regime an encoded pair only exists inside
           the ENC/gate/DEC bracket; routing must not break it apart. *)
        && not (intermediate && Layout.occupancy layout nd = 2)
      then begin
        let delta = goal_row.(nd) - d0 in
        if delta <= max_delta then
          iter_candidate_slots layout nd (fun d s ->
              match Layout.occupant layout d s with
              | Some q when frozen_qubit sc q -> ()
              | occupant ->
                (* Strictly-closer steps beat sideways ones; then disruption. *)
                let score =
                  (float_of_int delta *. 1000.) +. disruption layout mover occupant du d
                in
                if (not !have) || not (!best_score <= score) then begin
                  have := true;
                  best_d := d;
                  best_s := s;
                  best_score := score
                end)
      end)
    (Topology.neighbors topo du);
  if !have then begin
    Telemetry.Metrics.cell_incr router_steps_cell;
    Emit.swap_op layout (du, su) (!best_d, !best_s);
    Some ()
  end
  else None

(* Devices the mover may not enter: blocked ones, encoded pairs in the
   intermediate regime, and devices whose every usable slot is frozen. *)
let enterable layout sc d =
  (not (blocked_device sc d))
  && (not
        ((Layout.strategy layout).Strategy.encoding = Strategy.Intermediate
        && Layout.occupancy layout d = 2))
  &&
  let usable s =
    match Layout.occupant layout d s with
    | Some q -> not (frozen_qubit sc q)
    | None -> true
  in
  (match (Layout.strategy layout).Strategy.encoding with
  | Strategy.Bare -> usable 0
  | Strategy.Intermediate -> usable 1
  | Strategy.Packed -> usable 0 || usable 1)

(* First step of the shortest path from [src] to any device adjacent to
   [goal], through enterable devices only (the callers never need the rest
   of the path). Masks must already be stamped via [begin_masks]; BFS state
   comes from the layout's scratch, so nothing is allocated per call. *)
let bfs_next layout sc ~src ~goal =
  Telemetry.Metrics.cell_incr bfs_calls_cell;
  let topo = Layout.topology layout in
  sc.Layout.bfs_epoch <- sc.Layout.bfs_epoch + 1;
  let e = sc.Layout.bfs_epoch in
  let seen = sc.Layout.bfs_seen and prev = sc.Layout.bfs_prev and queue = sc.Layout.bfs_queue in
  let goal_row = Topology.dist_row topo goal in
  seen.(src) <- e;
  prev.(src) <- -1;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let found = ref (-1) in
  while !found < 0 && !head < !tail do
    let u = queue.(!head) in
    incr head;
    if u <> src && goal_row.(u) = 1 then found := u
    else
      List.iter
        (fun v ->
          if seen.(v) <> e && enterable layout sc v then begin
            seen.(v) <- e;
            prev.(v) <- u;
            queue.(!tail) <- v;
            incr tail
          end)
        (Topology.neighbors topo u)
  done;
  if !found < 0 then None
  else begin
    let d = ref !found in
    while prev.(!d) <> src do
      d := prev.(!d)
    done;
    Some !d
  end

(* Pick the slot on [next] that disrupts the layout least (slot order and
   tie-breaking as the candidate list had them), and step onto it. *)
let step_onto layout sc ~mover ~du ~su next ~or_fail =
  let have = ref false in
  let best_s = ref (-1) and best_cost = ref 0. in
  iter_candidate_slots layout next (fun d s ->
      match Layout.occupant layout d s with
      | Some q when frozen_qubit sc q -> ()
      | occupant ->
        let cost = disruption layout mover occupant du d in
        if (not !have) || not (!best_cost <= cost) then begin
          have := true;
          best_s := s;
          best_cost := cost
        end);
  if !have then begin
    Telemetry.Metrics.cell_incr router_steps_cell;
    Emit.swap_op layout (du, su) (next, !best_s)
  end
  else failwith or_fail

let route_adjacent_to_device layout ?(blocked = []) ?(frozen = []) ~device mover =
  let topo = Layout.topology layout in
  let sc = begin_masks layout ~blocked ~frozen in
  let at_goal () =
    let d = Layout.device_of layout mover in
    d = device || Topology.are_adjacent topo d device
  in
  while not (at_goal ()) do
    let du, su = Layout.pos layout mover in
    match bfs_next layout sc ~src:du ~goal:device with
    | None -> failwith "Router.route_adjacent_to_device: no path"
    | Some next ->
      step_onto layout sc ~mover ~du ~su next
        ~or_fail:"Router.route_adjacent_to_device: no usable slot"
  done

let route_pair layout ?(blocked = []) ?(frozen = []) a b =
  (* Move the endpoint whose single best step disrupts least; recompute each
     iteration. *)
  let budget =
    ref (6 * (dist layout (Layout.device_of layout a) (Layout.device_of layout b) + 2))
  in
  while not (adjacent_or_same layout a b) do
    if !budget <= 0 then failwith "Router.route_pair: step budget exhausted";
    decr budget;
    let try_move ~max_delta mover anchor =
      one_step layout ~blocked ~frozen:(anchor :: frozen) ~mover
        ~goal_device:(Layout.device_of layout anchor) ~max_delta
    in
    let attempts =
      [ (fun () -> try_move ~max_delta:(-1) a b);
        (fun () -> try_move ~max_delta:(-1) b a);
        (fun () -> try_move ~max_delta:0 a b);
        (fun () -> try_move ~max_delta:0 b a);
        (fun () -> try_move ~max_delta:1 a b) ]
    in
    let rec first = function
      | [] ->
        route_adjacent_to_device layout ~blocked ~frozen:(b :: frozen)
          ~device:(Layout.device_of layout b) a
      | f :: rest -> ( match f () with Some () -> () | None -> first rest)
    in
    first attempts
  done
