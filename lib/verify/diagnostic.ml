type severity = Error | Warning | Info

type t = {
  rule : string;
  severity : severity;
  op_index : int option;
  message : string;
  fix : string option;
}

let make ?op_index ?fix ~rule ~severity message =
  (* An Error-severity diagnostic is a post-mortem trigger: if the flight
     recorder is armed, dump the rings so the run that produced the finding
     can be reconstructed (no-op, and rate-limited, otherwise). Verify,
     Resource and Sanitize findings all funnel through here. *)
  if severity = Error then Waltz_telemetry.Recorder.note_error ~reason:rule;
  { rule; severity; op_index; message; fix }

let error ?op_index ?fix rule message = make ?op_index ?fix ~rule ~severity:Error message
let warning ?op_index ?fix rule message = make ?op_index ?fix ~rule ~severity:Warning message
let info ?op_index ?fix rule message = make ?op_index ?fix ~rule ~severity:Info message

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

let pp ppf d =
  (match d.op_index with
  | Some i -> Format.fprintf ppf "op %d: " i
  | None -> Format.fprintf ppf "program: ");
  Format.fprintf ppf "%s %s: %s" (severity_label d.severity) d.rule d.message;
  match d.fix with
  | Some fix -> Format.fprintf ppf " [fix: %s]" fix
  | None -> ()

type report = {
  diagnostics : t list;
  ops_checked : int;
  passes_run : string list;
}

let count severity report =
  List.length (List.filter (fun d -> d.severity = severity) report.diagnostics)

let error_count = count Error
let warning_count = count Warning
let is_clean report = error_count report = 0

let errors report = List.filter (fun d -> d.severity = Error) report.diagnostics

let with_rule rule report = List.filter (fun d -> d.rule = rule) report.diagnostics

let pp_report ppf report =
  Format.fprintf ppf "@[<v>waltz_verify: %d pass%s over %d ops: %d error%s, %d warning%s"
    (List.length report.passes_run)
    (if List.length report.passes_run = 1 then "" else "es")
    report.ops_checked (error_count report)
    (if error_count report = 1 then "" else "s")
    (warning_count report)
    (if warning_count report = 1 then "" else "s");
  List.iter (fun d -> Format.fprintf ppf "@,  %a" pp d) report.diagnostics;
  Format.fprintf ppf "@]"

let report_to_string report = Format.asprintf "%a" pp_report report
