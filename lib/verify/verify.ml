open Waltz_circuit
open Waltz_arch
open Waltz_core
module Telemetry = Waltz_telemetry.Telemetry

type pass =
  | Structural
  | Occupancy
  | Topology_pass
  | Schedule
  | Calibration_pass
  | Equivalence_pass
  | Stabilizer_pass
  | Leakage_pass
  | Cost_pass
  | Liveness_pass

let all_passes =
  [ Structural; Occupancy; Topology_pass; Schedule; Calibration_pass; Equivalence_pass;
    Stabilizer_pass; Leakage_pass; Cost_pass; Liveness_pass ]

let pass_name = function
  | Structural -> "structural"
  | Occupancy -> "occupancy"
  | Topology_pass -> "topology"
  | Schedule -> "schedule"
  | Calibration_pass -> "calibration"
  | Equivalence_pass -> "equivalence"
  | Stabilizer_pass -> "stabilizer"
  | Leakage_pass -> "leakage"
  | Cost_pass -> "cost"
  | Liveness_pass -> "liveness"

let pass_of_name name = List.find_opt (fun pass -> pass_name pass = name) all_passes

let run ?topology ?(passes = all_passes) ?equiv_max_qubits
    (circuit : Circuit.t option) (p : Physical.t) =
  let want pass = List.mem pass passes in
  let topo =
    match topology with
    | Some t -> t
    | None -> Topology.mesh (max 1 p.Physical.device_count)
  in
  (* Each pass runs inside a span and records how many of its rules fired,
     so a stats report shows where verification time and noise go. *)
  let timed pass f =
    let diagnostics =
      Telemetry.Span.with_ ~name:("verify/" ^ pass_name pass) f
    in
    if diagnostics <> [] then
      Telemetry.Metrics.incr
        ~by:(List.length diagnostics)
        ("verify." ^ pass_name pass ^ ".fired");
    diagnostics
  in
  let structural =
    if not (want Structural) then []
    else
      timed Structural (fun () ->
          let program = Structural.check_program p in
          match circuit with
          | None -> program
          | Some c -> program @ Structural.check_circuit c @ Structural.check_link c p)
  in
  let fatal = Structural.fatal structural in
  let ran = ref [] in
  let note pass = ran := pass_name pass :: !ran in
  if want Structural then note Structural;
  let when_safe pass f =
    if (not (want pass)) || fatal then []
    else begin
      note pass;
      timed pass f
    end
  in
  let on_circuit rule what f =
    match circuit with
    | None -> [ Diagnostic.info rule (what ^ " skipped: no source circuit") ]
    | Some c -> f c
  in
  let occupancy = when_safe Occupancy (fun () -> Dataflow.check p) in
  let topology = when_safe Topology_pass (fun () -> Conformance.check_topology topo p) in
  let schedule = when_safe Schedule (fun () -> Conformance.check_schedule p) in
  let calibration =
    when_safe Calibration_pass (fun () -> Conformance.check_calibration p)
  in
  (* The replay cannot elaborate a circuit the CIR rules reject. *)
  let circuit_error =
    List.find_opt (fun d -> String.starts_with ~prefix:"CIR" d.Diagnostic.rule) structural
  in
  let equivalence =
    when_safe Equivalence_pass (fun () ->
        match (circuit, circuit_error) with
        | None, _ ->
          [ Diagnostic.info "EQ00"
              "equivalence check skipped: no source circuit supplied" ]
        | Some _, Some d ->
          [ Diagnostic.info "EQ00"
              (Printf.sprintf "equivalence check skipped: malformed source circuit (see %s)"
                 d.Diagnostic.rule) ]
        | Some c, None -> Equivalence.check ?max_qubits:equiv_max_qubits c p)
  in
  let stabilizer =
    when_safe Stabilizer_pass (fun () ->
        on_circuit "STAB00" "stabilizer analysis" Stabilizer.check)
  in
  let leakage = when_safe Leakage_pass (fun () -> Leakage.check p) in
  let cost = when_safe Cost_pass (fun () -> Cost.check p) in
  let liveness =
    when_safe Liveness_pass (fun () -> on_circuit "LIVE00" "liveness analysis" Liveness.check)
  in
  { Diagnostic.diagnostics =
      structural @ occupancy @ topology @ schedule @ calibration @ equivalence @ stabilizer
      @ leakage @ cost @ liveness;
    ops_checked = List.length p.Physical.ops;
    passes_run = List.rev !ran }
