open Waltz_circuit
open Waltz_core
module Telemetry = Waltz_telemetry.Telemetry
module Diagnostic = Waltz_verify.Diagnostic

type pass = Stabilizer_pass | Leakage_pass | Cost_pass | Liveness_pass | Resource_pass

let all_passes =
  [ Stabilizer_pass; Leakage_pass; Cost_pass; Liveness_pass; Resource_pass ]

let pass_name = function
  | Stabilizer_pass -> "stabilizer"
  | Leakage_pass -> "leakage"
  | Cost_pass -> "cost"
  | Liveness_pass -> "liveness"
  | Resource_pass -> "res"

let pass_of_name = function
  | "stabilizer" -> Some Stabilizer_pass
  | "leakage" -> Some Leakage_pass
  | "cost" -> Some Cost_pass
  | "liveness" -> Some Liveness_pass
  | "res" | "resource" -> Some Resource_pass
  | _ -> None

let run ?(passes = all_passes) (circuit : Circuit.t option) (p : Physical.t) =
  let want pass = List.mem pass passes in
  let ran = ref [] in
  let timed pass f =
    if not (want pass) then []
    else begin
      ran := pass_name pass :: !ran;
      let diagnostics = Telemetry.Span.with_ ~name:("analyze/" ^ pass_name pass) f in
      if diagnostics <> [] then
        Telemetry.Metrics.incr
          ~by:(List.length diagnostics)
          ("analyze." ^ pass_name pass ^ ".fired");
      diagnostics
    end
  in
  let stabilizer =
    timed Stabilizer_pass (fun () ->
        match circuit with
        | None -> [ Diagnostic.info "STAB00" "stabilizer analysis skipped: no source circuit" ]
        | Some c -> Stabilizer.check c)
  in
  let leakage = timed Leakage_pass (fun () -> Leakage.check p) in
  let cost = timed Cost_pass (fun () -> Cost.check p) in
  let liveness =
    timed Liveness_pass (fun () ->
        match circuit with
        | None -> [ Diagnostic.info "LIVE00" "liveness analysis skipped: no source circuit" ]
        | Some c -> Liveness.check c)
  in
  let resource = timed Resource_pass (fun () -> Resource.check p) in
  { Diagnostic.diagnostics = stabilizer @ leakage @ cost @ liveness @ resource;
    ops_checked = List.length p.Physical.ops;
    passes_run = List.rev !ran }

let pp_report ppf (report : Diagnostic.report) =
  Format.fprintf ppf "@[<v>waltz_analysis: %d pass%s over %d ops: %d error%s, %d warning%s"
    (List.length report.Diagnostic.passes_run)
    (if List.length report.Diagnostic.passes_run = 1 then "" else "es")
    report.Diagnostic.ops_checked
    (Diagnostic.error_count report)
    (if Diagnostic.error_count report = 1 then "" else "s")
    (Diagnostic.warning_count report)
    (if Diagnostic.warning_count report = 1 then "" else "s");
  List.iter
    (fun d -> Format.fprintf ppf "@,  %a" Diagnostic.pp d)
    report.Diagnostic.diagnostics;
  Format.fprintf ppf "@]"
