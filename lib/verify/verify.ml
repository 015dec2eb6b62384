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

let all_passes =
  [ Structural; Occupancy; Topology_pass; Schedule; Calibration_pass; Equivalence_pass ]

let pass_name = function
  | Structural -> "structural"
  | Occupancy -> "occupancy"
  | Topology_pass -> "topology"
  | Schedule -> "schedule"
  | Calibration_pass -> "calibration"
  | Equivalence_pass -> "equivalence"

let run ?topology ?(passes = all_passes) ?probes ?seed ?equiv_max_qubits
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
  let occupancy = when_safe Occupancy (fun () -> Dataflow.check p) in
  let topology = when_safe Topology_pass (fun () -> Conformance.check_topology topo p) in
  let schedule = when_safe Schedule (fun () -> Conformance.check_schedule p) in
  let calibration =
    when_safe Calibration_pass (fun () -> Conformance.check_calibration p)
  in
  let link_broken =
    List.exists (fun d -> d.Diagnostic.rule = "CIR04") structural
  in
  let equivalence =
    when_safe Equivalence_pass (fun () ->
        match circuit with
        | None ->
          [ Diagnostic.info "EQ00"
              "equivalence check skipped: no source circuit supplied" ]
        | Some _ when link_broken ->
          [ Diagnostic.info "EQ00"
              "equivalence check skipped: qubit count mismatch (see CIR04)" ]
        | Some c -> Equivalence.check ?probes ?seed ?max_qubits:equiv_max_qubits c p)
  in
  { Diagnostic.diagnostics =
      structural @ occupancy @ topology @ schedule @ calibration @ equivalence;
    ops_checked = List.length p.Physical.ops;
    passes_run = List.rev !ran }

let pp_report = Diagnostic.pp_report
