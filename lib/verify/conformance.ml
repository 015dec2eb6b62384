open Waltz_arch
open Waltz_core
open Waltz_qudit

(* ---- Pass 3: topology legality ---- *)

let check_topology topo (p : Physical.t) =
  if Topology.device_count topo < p.Physical.device_count then
    [ Diagnostic.error "TOP02"
        (Printf.sprintf "program uses %d devices but %s has only %d" p.Physical.device_count
           (Topology.name topo) (Topology.device_count topo)) ]
  else begin
    let diags = ref [] in
    let add d = diags := d :: !diags in
    List.iteri
      (fun i (op : Physical.op) ->
        let devs =
          List.sort_uniq compare
            (List.map (fun (part : Physical.device_part) -> part.Physical.device) op.Physical.parts)
        in
        let max_span = if p.Physical.device_dim = 4 then 2 else 3 in
        if List.length devs > max_span then
          add
            (Diagnostic.error ~op_index:i "TOP03"
               (Printf.sprintf "%s spans %d devices; pulses reach at most %d here"
                  op.Physical.label (List.length devs) max_span));
        match devs with
        | [] | [ _ ] -> ()
        | [ d1; d2 ] ->
          if not (Topology.are_adjacent topo d1 d2) then
            add
              (Diagnostic.error ~op_index:i "TOP01"
                 (Printf.sprintf "%s acts on devices %d and %d, not adjacent in %s"
                    op.Physical.label d1 d2 (Topology.name topo)))
        | _ ->
          (* Three-device pulses (iToffoli) center on the last target's
             device; both other devices must couple to it. *)
          let center =
            match List.rev op.Physical.targets with
            | (d, _) :: _ -> d
            | [] -> List.hd devs
          in
          List.iter
            (fun d ->
              if d <> center && not (Topology.are_adjacent topo d center) then
                add
                  (Diagnostic.error ~op_index:i "TOP01"
                     (Printf.sprintf "%s: device %d does not couple to the centre device %d"
                        op.Physical.label d center)))
            devs)
      p.Physical.ops;
    List.rev !diags
  end

(* ---- Pass 4: schedule safety ---- *)

let check_schedule (p : Physical.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Two replays of the dependency DAG: [free] holds when each device is
     busy until under the memoized starts, [asap] the finish times of an
     independent ASAP schedule, whose longest chain is the critical path. *)
  let free = Array.make (max 1 p.Physical.device_count) 0. in
  let asap = Array.make (max 1 p.Physical.device_count) 0. in
  let ready times (op : Physical.op) =
    List.fold_left
      (fun acc (part : Physical.device_part) -> Float.max acc times.(part.Physical.device))
      0. op.Physical.parts
  in
  let critical = ref 0. in
  Array.iteri
    (fun i ((op : Physical.op), start) ->
      if (not (Float.is_finite op.Physical.duration_ns)) || op.Physical.duration_ns < 0. then
        add
          (Diagnostic.error ~op_index:i "SCHED03"
             (Printf.sprintf "%s has duration %g ns" op.Physical.label
                op.Physical.duration_ns));
      let earliest = ready free op in
      if start < earliest -. 1e-6 then
        add
          (Diagnostic.error ~op_index:i "SCHED01"
             (Printf.sprintf "%s starts at %.1f ns while a device is busy until %.1f ns"
                op.Physical.label start earliest))
      else if start > earliest +. 1e-6 then
        add
          (Diagnostic.warning ~op_index:i "SCHED01"
             (Printf.sprintf "%s starts at %.1f ns, later than the ASAP time %.1f ns"
                op.Physical.label start earliest));
      let finish = ready asap op +. op.Physical.duration_ns in
      List.iter
        (fun (part : Physical.device_part) ->
          free.(part.Physical.device) <- start +. op.Physical.duration_ns;
          asap.(part.Physical.device) <- finish)
        op.Physical.parts;
      if finish > !critical then critical := finish)
    (Physical.schedule_array p);
  let total = Physical.total_duration p in
  if Float.abs (total -. !critical) > 1e-6 then
    add
      (Diagnostic.error "SCHED02"
         (Printf.sprintf "total_duration %.1f ns but the critical path is %.1f ns" total
            !critical));
  List.rev !diags

(* ---- Pass 5: calibration & strategy conformance ---- *)

let catalog : Calibration.entry list =
  List.concat Calibration.table1 @ List.concat Calibration.table2 @ [ Calibration.fq_cccz ]

let bare_catalog : Calibration.entry list =
  [ Calibration.bare_1q; Calibration.qubit_cx; Calibration.qubit_cz; Calibration.qubit_csdg;
    Calibration.qubit_swap; Calibration.itoffoli ]

let matches (op : Physical.op) (e : Calibration.entry) =
  Float.abs (op.Physical.duration_ns -. e.Calibration.duration_ns) < 1e-6
  && Float.abs (op.Physical.fidelity -. e.Calibration.fidelity) < 1e-9

let check_calibration (p : Physical.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let bare_strategy = p.Physical.strategy.Strategy.encoding = Strategy.Bare in
  List.iteri
    (fun i (op : Physical.op) ->
      (match List.filter (matches op) catalog with
      | [] ->
        add
          (Diagnostic.error ~op_index:i "CAL01"
             (Printf.sprintf "%s: %.0f ns at fidelity %.4f matches no calibration entry"
                op.Physical.label op.Physical.duration_ns op.Physical.fidelity))
      | candidates ->
        let in_bare_set = List.exists (matches op) bare_catalog in
        let only_itoffoli =
          List.for_all (fun (e : Calibration.entry) -> e.Calibration.label = "iToffoli_3") candidates
        in
        if bare_strategy && not in_bare_set then
          add
            (Diagnostic.error ~op_index:i "CAL02"
               (Printf.sprintf "%s: pulse %s needs four-level devices but strategy %s is bare"
                  op.Physical.label
                  (List.hd candidates).Calibration.label
                  p.Physical.strategy.Strategy.name))
        else if (not bare_strategy) && only_itoffoli then
          add
            (Diagnostic.error ~op_index:i "CAL02"
               (Printf.sprintf "%s: the three-device iToffoli pulse needs bare qubits"
                  op.Physical.label)));
      if p.Physical.device_dim = 2 && op.Physical.touches_ww then
        add
          (Diagnostic.error ~op_index:i "CAL03"
             (Printf.sprintf "%s claims to touch levels |2>/|3> on two-level devices"
                op.Physical.label)))
    p.Physical.ops;
  List.rev !diags
