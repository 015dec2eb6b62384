open Waltz_qudit
open Waltz_circuit
open Waltz_arch
module Telemetry = Waltz_telemetry.Telemetry
module Sanitize = Waltz_sanitizer.Sanitize

let device_count strategy n =
  match strategy.Strategy.encoding with
  | Strategy.Bare | Strategy.Intermediate -> n
  | Strategy.Packed -> (n + 1) / 2

let dist layout a b =
  Topology.distance (Layout.topology layout)
    (Layout.device_of layout a) (Layout.device_of layout b)

(* Pair selection for three-qubit gates: candidate (pair, lone) splits of the
   operand triple, preferring [preferred] pairs when they are
   distance-optimal. *)
let choose_pair layout ~preferred ?(hint = 0) operands =
  let splits =
    match operands with
    | [ a; b; c ] -> [ ((a, b), c); ((a, c), b); ((b, c), a) ]
    | _ -> invalid_arg "choose_pair"
  in
  let d ((x, y), _) = dist layout x y in
  let same (x, y) (x', y') = (x = x' && y = y') || (x = y' && y = x') in
  let is_preferred (p, _) = List.exists (same p) preferred in
  (* Rank: distance first, preferred pairs winning ties; [hint] rotates to
     the next-best split when the best one dead-ends. *)
  let ranked =
    List.stable_sort
      (fun s1 s2 ->
        match compare (d s1) (d s2) with
        | 0 -> compare (is_preferred s2) (is_preferred s1)
        | c -> c)
      splits
  in
  List.nth ranked (hint mod List.length ranked)

(* ---- Intermediate (mixed-radix) three-qubit execution ---- *)

let mr_slot_of layout q = snd (Layout.pos layout q)

let encode_pair layout (x, y) ~toward ~want_at_slot =
  (* Route the pair adjacent, pick the member closer to [toward] as host. *)
  Router.route_pair layout ~frozen:[ toward ] x y;
  let dx = Layout.device_of layout x and dy = Layout.device_of layout y in
  let dt = Layout.device_of layout toward in
  let topo = Layout.topology layout in
  let host, incoming =
    if Topology.distance topo dx dt <= Topology.distance topo dy dt then (x, y) else (y, x)
  in
  let src = Layout.device_of layout incoming and dst = Layout.device_of layout host in
  (* Slot choreography: [want_at_slot] optionally pins one logical qubit to a
     slot; the occupant ends at slot 1 with incoming_slot 0, slot 0 with
     incoming_slot 1. *)
  let incoming_slot =
    match want_at_slot with
    | None -> 0
    | Some (q, s) ->
      if q = incoming then s
      else if q = host then (if s = 1 then 0 else 1)
      else 0
  in
  Emit.enc_op layout ~src ~dst ~incoming_slot;
  (incoming, src, dst)

let intermediate_3q layout ~hint (gate : Gate.t) =
  let strategy = Layout.strategy layout in
  let choreograph = strategy.Strategy.choreograph_slots in
  match (gate.Gate.kind, gate.Gate.qubits) with
  | Gate.Ccz, [ a; b; c ] ->
    let (x, y), z = choose_pair layout ~preferred:[] ~hint [ a; b; c ] in
    let q_in, src, dst = encode_pair layout (x, y) ~toward:z ~want_at_slot:None in
    Router.route_adjacent_to_device layout ~blocked:[ src ] ~frozen:[ x; y ] ~device:dst z;
    Emit.three_qubit_pulse layout ~label:Calibration.mr_ccz.Calibration.label
      ~entry:Calibration.mr_ccz ~kind:gate.Gate.kind ~operands:[ a; b; c ];
    Emit.dec_op layout ~ququart:dst ~outgoing_slot:(mr_slot_of layout q_in) ~dst:src
  | Gate.Ccx, [ c0; c1; t ] ->
    let preferred =
      if not choreograph then []
      else
        match strategy.Strategy.three_q with
        | Strategy.Retarget_ccx | Strategy.Direct_ccx -> [ (c0, c1) ]
        | _ -> []
    in
    let (x, y), z = choose_pair layout ~preferred ~hint [ c0; c1; t ] in
    let retarget = strategy.Strategy.three_q = Strategy.Retarget_ccx && z <> t in
    (* Direct: make sure an encoded target sits at slot 1 (619 ns vs 697). *)
    let want_at_slot =
      if choreograph && (not retarget) && z <> t then Some (t, 1) else None
    in
    let q_in, src, dst = encode_pair layout (x, y) ~toward:z ~want_at_slot in
    Router.route_adjacent_to_device layout ~blocked:[ src ] ~frozen:[ x; y ] ~device:dst z;
    if retarget then begin
      (* CCX(c0,c1,t) = H_t H_z CCX(cE, t, z) H_t H_z where cE is the encoded
         control and z the bare one (Fig. 6b): best configuration, 412 ns. *)
      let ce = if x = t then y else x in
      Emit.one_qubit_op layout Gate.H t;
      Emit.one_qubit_op layout Gate.H z;
      let entry = Calibration.mr_ccx ~target:Ququart_gates.Qubit in
      Emit.three_qubit_pulse layout ~label:entry.Calibration.label ~entry
        ~kind:Gate.Ccx ~operands:[ ce; t; z ];
      Emit.one_qubit_op layout Gate.H t;
      Emit.one_qubit_op layout Gate.H z
    end
    else begin
      let entry =
        if z = t then Calibration.mr_ccx ~target:Ququart_gates.Qubit
        else Calibration.mr_ccx ~target:(Ququart_gates.Slot (mr_slot_of layout t))
      in
      Emit.three_qubit_pulse layout ~label:entry.Calibration.label ~entry ~kind:Gate.Ccx
        ~operands:[ c0; c1; t ]
    end;
    Emit.dec_op layout ~ququart:dst ~outgoing_slot:(mr_slot_of layout q_in) ~dst:src
  | Gate.Cswap, [ c; t0; t1 ] ->
    let preferred =
      if not choreograph then []
      else
        match strategy.Strategy.cswap with
        | Strategy.Cswap_oriented -> [ (t0, t1) ]
        | _ -> []
    in
    let (x, y), z = choose_pair layout ~preferred ~hint [ c; t0; t1 ] in
    (* A control encoded in the ququart is cheapest at slot 0 (684 ns). *)
    let want_at_slot = if choreograph && z <> c then Some (c, 0) else None in
    let q_in, src, dst = encode_pair layout (x, y) ~toward:z ~want_at_slot in
    Router.route_adjacent_to_device layout ~blocked:[ src ] ~frozen:[ x; y ] ~device:dst z;
    let entry =
      if z = c then Calibration.mr_cswap ~control:Ququart_gates.Qubit
      else Calibration.mr_cswap ~control:(Ququart_gates.Slot (mr_slot_of layout c))
    in
    Emit.three_qubit_pulse layout ~label:entry.Calibration.label ~entry ~kind:Gate.Cswap
      ~operands:[ c; t0; t1 ];
    Emit.dec_op layout ~ququart:dst ~outgoing_slot:(mr_slot_of layout q_in) ~dst:src
  | _ -> invalid_arg "intermediate_3q: unsupported gate"

(* ---- Full-ququart three-qubit execution ---- *)

let packed_3q layout ~hint (gate : Gate.t) =
  let strategy = Layout.strategy layout in
  let operands = gate.Gate.qubits in
  let preferred =
    if not strategy.Strategy.choreograph_slots then []
    else
      match (gate.Gate.kind, operands) with
      | Gate.Ccx, [ c0; c1; _ ] -> [ (c0, c1) ]
      | Gate.Cswap, [ _; t0; t1 ] when strategy.Strategy.cswap = Strategy.Cswap_oriented
        -> [ (t0, t1) ]
      | _ -> []
  in
  (* Ensure two operands share a device. *)
  let cohosted () =
    let devs = List.map (Layout.device_of layout) operands in
    match (operands, devs) with
    | [ a; b; c ], [ da; db; dc ] ->
      if da = db then Some ((a, b), c)
      else if da = dc then Some ((a, c), b)
      else if db = dc then Some ((b, c), a)
      else None
    | _ -> None
  in
  let (x, y), z =
    match cohosted () with
    | Some split -> split
    | None ->
      let (x, y), z = choose_pair layout ~preferred ~hint operands in
      Router.route_pair layout ~frozen:[ z ] x y;
      if Layout.device_of layout x <> Layout.device_of layout y then begin
        let dy, sy = Layout.pos layout y in
        Emit.swap_op layout (Layout.pos layout x) (dy, 1 - sy)
      end;
      ((x, y), z)
  in
  let host = Layout.device_of layout x in
  Router.route_adjacent_to_device layout ~frozen:[ x; y ] ~device:host z;
  let slot q = snd (Layout.pos layout q) in
  let z_bare = Layout.occupancy layout (Layout.device_of layout z) = 1 in
  let entry =
    match (gate.Gate.kind, operands) with
    | Gate.Ccz, _ ->
      if z_bare then Calibration.mr_ccz else Calibration.fq_ccz ~lone_slot:(slot z)
    | Gate.Ccx, [ c0; c1; t ] ->
      let controls_together = (x = c0 && y = c1) || (x = c1 && y = c0) in
      if controls_together then
        if z_bare then Calibration.mr_ccx ~target:Ququart_gates.Qubit
        else Calibration.fq_ccx_controls_together ~target_slot:(slot t)
      else if z_bare then Calibration.mr_ccx ~target:(Ququart_gates.Slot (slot t))
      else begin
        (* Split controls: z is a control alone in its device; the host pair
           is (control, target). *)
        let host_control = if x = t then y else x in
        Calibration.fq_ccx_split ~a_slot:(slot z) ~b_control_slot:(slot host_control)
      end
    | Gate.Cswap, [ c; t0; t1 ] ->
      let targets_together = (x = t0 && y = t1) || (x = t1 && y = t0) in
      if targets_together then
        if z_bare then Calibration.mr_cswap ~control:Ququart_gates.Qubit
        else Calibration.fq_cswap_targets_together ~control_slot:(slot c)
      else begin
        let lone_target = if z = c then assert false else z in
        if z_bare then Calibration.mr_cswap ~control:(Ququart_gates.Slot (slot c))
        else
          Calibration.fq_cswap_targets_split ~control_slot:(slot c)
            ~b_target_slot:(slot lone_target)
      end
    | _ -> invalid_arg "packed_3q: unsupported gate"
  in
  ignore host;
  Emit.three_qubit_pulse layout ~label:entry.Calibration.label ~entry ~kind:gate.Gate.kind
    ~operands

(* ---- Full-ququart four-qubit execution (extension beyond the paper) ---- *)

(* Move [q] into [device], displacing a non-frozen occupant if needed. *)
let move_into layout ~frozen q device =
  if Layout.device_of layout q <> device then begin
    Router.route_adjacent_to_device layout ~frozen ~device q;
    if Layout.device_of layout q <> device then begin
      let slot =
        match
          List.find_opt
            (fun s ->
              match Layout.occupant layout device s with
              | None -> true
              | Some occ -> not (List.mem occ frozen))
            [ 0; 1 ]
        with
        | Some s -> s
        | None -> failwith "move_into: device fully frozen"
      in
      Emit.swap_op layout (Layout.pos layout q) (device, slot)
    end
  end

let packed_4q layout (gate : Gate.t) =
  match (gate.Gate.kind, gate.Gate.qubits) with
  | Gate.Cccz, ([ a; b; c; d ] as operands) ->
    (* Co-host a pair, then fill an adjacent device with the other two. *)
    let pairs = [ (a, b); (a, c); (a, d); (b, c); (b, d); (c, d) ] in
    let cohosted =
      List.find_opt
        (fun (x, y) -> Layout.device_of layout x = Layout.device_of layout y)
        pairs
    in
    let x, y =
      match cohosted with
      | Some p -> p
      | None ->
        let best =
          List.fold_left
            (fun acc (x, y) ->
              let dxy = dist layout x y in
              match acc with
              | Some (_, _, best_d) when best_d <= dxy -> acc
              | _ -> Some (x, y, dxy))
            None pairs
        in
        let x, y, _ = Option.get best in
        Router.route_pair layout ~frozen:(List.filter (fun q -> q <> x && q <> y) operands) x y;
        if Layout.device_of layout x <> Layout.device_of layout y then begin
          let dy, sy = Layout.pos layout y in
          Emit.swap_op layout (Layout.pos layout x) (dy, 1 - sy)
        end;
        (x, y)
    in
    let host_a = Layout.device_of layout x in
    let z, w =
      match List.filter (fun q -> q <> x && q <> y) operands with
      | [ z; w ] -> (z, w)
      | _ -> assert false
    in
    (* Pick the neighbouring device closest to the remaining operands. *)
    let topo = Layout.topology layout in
    let host_b =
      List.fold_left
        (fun acc nd ->
          let cost q = Topology.distance topo (Layout.device_of layout q) nd in
          let c = cost z + cost w in
          match acc with Some (_, bc) when bc <= c -> acc | _ -> Some (nd, c))
        None
        (Topology.neighbors topo host_a)
      |> Option.get |> fst
    in
    move_into layout ~frozen:[ x; y; w ] z host_b;
    move_into layout ~frozen:[ x; y; z ] w host_b;
    let entry = Calibration.fq_cccz in
    Emit.three_qubit_pulse layout ~label:entry.Calibration.label ~entry ~kind:gate.Gate.kind
      ~operands
  | _ -> invalid_arg "packed_4q: only CCCZ reaches the four-qubit backend"

(* ---- iToffoli execution on bare qubits ---- *)

let itoffoli_3q layout ~hint (gate : Gate.t) =
  match (gate.Gate.kind, gate.Gate.qubits) with
  | Gate.Ccx, [ c0; c1; t ] ->
    (* Pick the centre operand minimizing routing and route the other two
       adjacent to it, backtracking over centre choices and routing orders
       when the placement dead-ends; Hadamards retarget when the centre is
       not the logical target (Fig. 6b/6d). *)
    let cost m =
      List.fold_left (fun acc q -> acc + if q = m then 0 else dist layout m q) 0
        [ c0; c1; t ]
    in
    let centers =
      List.stable_sort (fun a b -> compare (cost a) (cost b)) [ t; c0; c1 ]
    in
    let attempts =
      List.concat_map
        (fun m ->
          let others = List.filter (( <> ) m) [ c0; c1; t ] in
          match others with
          | [ u; v ] -> [ (m, u, v); (m, v, u) ]
          | _ -> assert false)
        centers
    in
    let attempts =
      (* Rotate so retries explore a different placement first. *)
      let k = hint mod List.length attempts in
      let rec rot i = function
        | l when i = 0 -> l
        | x :: rest -> rot (i - 1) (rest @ [ x ])
        | [] -> []
      in
      rot k attempts
    in
    let rec assemble = function
      | [] -> failwith "itoffoli_3q: could not assemble the triple"
      | (m, u, v) :: rest -> begin
        let cp = Layout.checkpoint layout in
        try
          let device = Layout.device_of layout m in
          Router.route_adjacent_to_device layout ~frozen:[ m; v ] ~device u;
          Router.route_adjacent_to_device layout ~frozen:[ m; u ] ~device v;
          m
        with Failure _ ->
          Layout.restore layout cp;
          assemble rest
      end
    in
    let center = assemble attempts in
    let retarget = center <> t in
    let controls =
      if retarget then List.filter (( <> ) center) [ c0; c1; t ] else [ c0; c1 ]
    in
    let u, v = match controls with [ u; v ] -> (u, v) | _ -> assert false in
    if retarget then begin
      Emit.one_qubit_op layout Gate.H t;
      Emit.one_qubit_op layout Gate.H center
    end;
    Emit.itoffoli_op layout u v center;
    (* Corrective CS† between the two controls: they flank the centre, so
       swap the centre qubit with one control first (Sec. 7). *)
    Emit.swap_op layout (Layout.pos layout center) (Layout.pos layout u);
    Emit.two_qubit_op layout Gate.Csdg u v;
    if retarget then begin
      Emit.one_qubit_op layout Gate.H t;
      Emit.one_qubit_op layout Gate.H center
    end
  | _ -> invalid_arg "itoffoli_3q: only CCX reaches the iToffoli backend"

(* Per-phase op accounting for the stats report: every emitted op, plus the
   communication overhead split the way Qompress reports it — SWAP movement
   (routing) vs ENC/DEC encode-decode choreography. *)
let record_op_counts ops =
  if Telemetry.metrics_enabled () then begin
    Telemetry.Metrics.incr ~by:(List.length ops) "compile.ops";
    List.iter
      (fun (op : Physical.op) ->
        if String.starts_with ~prefix:"SWAP" op.Physical.label then
          Telemetry.Metrics.incr "compile.swap_ops"
        else if op.Physical.label = "ENC" || op.Physical.label = "ENCdg" then
          Telemetry.Metrics.incr "compile.encdec_ops")
      ops
  end

let compile_uncached ~topo strategy circuit =
  Telemetry.Span.with_ ~name:"compile"
    ~args:[ ("strategy", strategy.Strategy.name) ]
  @@ fun () ->
  let n = circuit.Circuit.n in
  let prepared =
    Telemetry.Span.with_ ~name:"compile/decompose" (fun () -> Decompose.pre strategy circuit)
  in
  let layout =
    Telemetry.Span.with_ ~name:"compile/map" (fun () ->
        let weights = Circuit.interaction_weights prepared in
        let layout = Layout.create topo strategy ~n_logical:n ~weights in
        Mapping.initial layout;
        layout)
  in
  let initial_map = Layout.snapshot_map layout in
  Telemetry.Span.with_ ~name:"compile/route+choreograph" (fun () ->
      List.iter
        (fun (gate : Gate.t) ->
          match Gate.arity gate.Gate.kind with
          | 1 -> Emit.one_qubit_op layout gate.Gate.kind (List.hd gate.Gate.qubits)
          | 2 -> begin
            match gate.Gate.qubits with
            | [ a; b ] ->
              Telemetry.Span.with_ ~name:"compile/route" (fun () ->
                  if not (Router.adjacent_or_same layout a b) then
                    Router.route_pair layout a b);
              Emit.two_qubit_op layout gate.Gate.kind a b
            | _ -> assert false
          end
          | 3 | 4 -> begin
            let handler ~hint =
              match (Gate.arity gate.Gate.kind, strategy.Strategy.encoding) with
              | 4, Strategy.Packed -> packed_4q layout gate
              | 4, _ -> invalid_arg "Compile: four-qubit gates should have been decomposed"
              | _, Strategy.Bare -> itoffoli_3q layout ~hint gate
              | _, Strategy.Intermediate -> intermediate_3q layout ~hint gate
              | _, Strategy.Packed -> packed_3q layout ~hint gate
            in
            (* Backtrack over operand splits when a routing order dead-ends. *)
            let rec attempt hint =
              let cp = Layout.checkpoint layout in
              try handler ~hint
              with Failure _ when hint < 5 ->
                Telemetry.Metrics.incr "compile.backtracks";
                Layout.restore layout cp;
                attempt (hint + 1)
            in
            Telemetry.Span.with_ ~name:"compile/choreograph" (fun () -> attempt 0)
          end
          | _ -> invalid_arg "Compile.compile: unsupported gate arity")
        prepared.Circuit.gates);
  Telemetry.Span.with_ ~name:"compile/schedule" (fun () ->
      let ops = Layout.ops layout in
      record_op_counts ops;
      { Physical.strategy;
        n_logical = n;
        device_count = Topology.device_count topo;
        device_dim = Layout.device_dim layout;
        ops;
        initial_map;
        final_map = Layout.snapshot_map layout;
        schedule_memo = None;
        kernel_memo = None })

(* ---- Compiled-program cache ---- *)

(* MRU cache over finished programs: sweeps and repeated service requests
   compile the same (circuit, strategy, topology) over and over. Keyed by a
   cheap circuit fingerprint, confirmed by structural equality —
   fingerprints may collide, equal values may not. The default mesh is
   keyed as [None]: it is fixed by the strategy and the circuit's width,
   both in the key, so a hit builds no topology. Programs are immutable
   once built (their memos aside), so sharing one across callers (and
   domains) is safe; a hit also returns the executor's kernel memo with the
   program.

   The bound is on the ops the programs hold, not on their count: hits move
   to the front, and an insert evicts from the tail until the held ops fit
   [program_cache_budget], always keeping the newest entry, so a program
   over the budget is still reused on an immediate repeat. A program counts
   as at least one op. *)
type cache_entry = {
  key_fp : int;
  key_strategy : Strategy.t;
  key_topo : Topology.t option;
  key_circuit : Circuit.t;
  program : Physical.t;
  weight : int;
}

let program_cache : cache_entry list ref = ref []
let program_cache_mutex = Mutex.create ()

(* Sized from measured traffic (doc/PERF.md "Program cache"): the e2e
   requests pool holds 56 programs and about 2,800 ops, noise 596 ops,
   ladder 277, and sweep's largest program 1,460 ops. *)
let program_cache_budget = 4096
let cache_hit_cell = Telemetry.Metrics.cell "compile.program_cache.hit"
let cache_miss_cell = Telemetry.Metrics.cell "compile.program_cache.miss"

let program_cache_enabled = ref true

let set_program_cache on = program_cache_enabled := on

(* Runs [f], which must not raise, under the cache mutex. *)
let with_cache_lock f =
  Mutex.lock program_cache_mutex;
  Sanitize.Lock.acquire "compile.program_cache_mutex";
  let r = f () in
  Sanitize.Lock.release "compile.program_cache_mutex";
  Mutex.unlock program_cache_mutex;
  r

let set_entries entries =
  Sanitize.Shared.write "compile.program_cache";
  program_cache := entries

let program_cache_clear () = with_cache_lock (fun () -> set_entries [])

let program_cache_held () =
  with_cache_lock (fun () ->
      Sanitize.Shared.read "compile.program_cache";
      List.map (fun e -> e.weight) !program_cache)

(* Callers hold the cache mutex. *)
let cache_find ~fp ~strategy ~topology circuit =
  Sanitize.Shared.read "compile.program_cache";
  List.find_opt
    (fun e ->
      e.key_fp = fp && e.key_strategy = strategy && e.key_topo = topology
      && e.key_circuit = circuit)
    !program_cache

(* [entries] without [entry], copying only the entries before it. *)
let[@tail_mod_cons] rec remove entry = function
  | [] -> []
  | e :: rest -> if e == entry then rest else e :: remove entry rest

(* The longest MRU prefix whose ops fit the budget, and at least its head. *)
let[@tail_mod_cons] rec fitting held = function
  | e :: rest when held = 0 || held + e.weight <= program_cache_budget ->
    e :: fitting (held + e.weight) rest
  | _ -> []

let compile ?topology strategy circuit =
  let devices = device_count strategy circuit.Circuit.n in
  (match topology with
  | Some t when Topology.device_count t < devices ->
    invalid_arg "Compile.compile: topology too small for the circuit"
  | _ -> ());
  let compile_fresh () =
    let topo = match topology with Some t -> t | None -> Topology.mesh devices in
    compile_uncached ~topo strategy circuit
  in
  if not !program_cache_enabled then compile_fresh ()
  else begin
    let fp = Circuit.fingerprint circuit in
    let find () = cache_find ~fp ~strategy ~topology circuit in
    let cached =
      with_cache_lock (fun () ->
          match find () with
          | Some entry ->
            set_entries (entry :: remove entry !program_cache);
            Some entry.program
          | None -> None)
    in
    match cached with
    | Some program ->
      Telemetry.Metrics.cell_incr cache_hit_cell;
      program
    | None ->
      Telemetry.Metrics.cell_incr cache_miss_cell;
      let program = compile_fresh () in
      (* Re-check before inserting: compilation ran outside the lock, so a
         concurrent caller may have compiled and inserted the same key in
         the meantime. Adopting the winner keeps one kernel memo per key
         and the budget undiluted. *)
      with_cache_lock (fun () ->
          match find () with
          | Some entry -> entry.program
          | None ->
            let entry =
              { key_fp = fp; key_strategy = strategy; key_topo = topology;
                key_circuit = circuit; program; weight = max 1 (Physical.op_count program) }
            in
            set_entries (fitting 0 (entry :: !program_cache));
            program)
  end

(* ---- Parallel strategy portfolio ---- *)

let compile_all ?topology ?domains jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  if n = 0 then []
  else if n = 1 then
    let s, c = jobs.(0) in
    [ compile ?topology s c ]
  else begin
    let pool = Waltz_runtime.Pool.shared ?domains () in
    let compiled =
      Waltz_runtime.Pool.map_array ?domains pool ~n ~f:(fun i ->
          let s, c = jobs.(i) in
          compile ?topology s c)
    in
    Array.to_list compiled
  end
