module Json = Waltz_telemetry.Json

(* ---- writer ---- *)

let level_of = function
  | Diagnostic.Error -> "error"
  | Diagnostic.Warning -> "warning"
  | Diagnostic.Info -> "note"

(* Every checker family plus RES (certificates from [waltz_cli budget]);
   the sanitizer writes its RACE/LOCK/OWN families under its own tool. *)
let checker_families =
  [ "WF"; "CIR"; "OCC"; "TOP"; "SCHED"; "CAL"; "EQ"; "STAB"; "LEAK"; "COST"; "LIVE"; "RES" ]

let owned_rules families =
  List.filter
    (fun (r : Rules.info) ->
      List.exists (fun fam -> String.starts_with ~prefix:fam r.Rules.id) families)
    Rules.all

let rule_json (r : Rules.info) =
  Printf.sprintf
    "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"},\"help\":{\"text\":\"%s\"},\"defaultConfiguration\":{\"level\":\"%s\"}}"
    (Json.escape r.Rules.id) (Json.escape r.Rules.title) (Json.escape r.Rules.grounding)
    (level_of r.Rules.severity)

let result_json ~rule_index (d : Diagnostic.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "{\"ruleId\":\"%s\"" (Json.escape d.Diagnostic.rule));
  (match rule_index d.Diagnostic.rule with
  | Some i -> Buffer.add_string buf (Printf.sprintf ",\"ruleIndex\":%d" i)
  | None -> ());
  Buffer.add_string buf (Printf.sprintf ",\"level\":\"%s\"" (level_of d.Diagnostic.severity));
  Buffer.add_string buf
    (Printf.sprintf ",\"message\":{\"text\":\"%s\"}" (Json.escape d.Diagnostic.message));
  (match d.Diagnostic.op_index with
  | Some i ->
    Buffer.add_string buf
      (Printf.sprintf
         ",\"locations\":[{\"logicalLocations\":[{\"fullyQualifiedName\":\"op[%d]\",\"kind\":\"instruction\"}]}]"
         i)
  | None -> ());
  (match d.Diagnostic.fix with
  | Some fix -> Buffer.add_string buf (Printf.sprintf ",\"properties\":{\"fix\":\"%s\"}" (Json.escape fix))
  | None -> ());
  Buffer.add_char buf '}';
  Buffer.contents buf

(* One run object; [id], when given, names the run in its
   [automationDetails]. *)
let run_json ~families ~driver ~id (report : Diagnostic.report) =
  let driver_name, driver_uri = driver in
  let rules = owned_rules families in
  let index_of =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i (r : Rules.info) -> Hashtbl.replace tbl r.Rules.id i) rules;
    fun id -> Hashtbl.find_opt tbl id
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"tool\":{\"driver\":{\"name\":\"%s\",\"informationUri\":\"%s\",\"rules\":["
       (Json.escape driver_name) (Json.escape driver_uri));
  Buffer.add_string buf (String.concat "," (List.map rule_json rules));
  Buffer.add_string buf "]}},";
  (match id with
  | Some id -> Printf.bprintf buf "\"automationDetails\":{\"id\":\"%s\"}," (Json.escape id)
  | None -> ());
  Buffer.add_string buf "\"columnKind\":\"utf16CodeUnits\",";
  Buffer.add_string buf
    (Printf.sprintf "\"properties\":{\"opsChecked\":%d,\"passes\":[%s]},"
       report.Diagnostic.ops_checked
       (String.concat ","
          (List.map (fun p -> Printf.sprintf "\"%s\"" (Json.escape p)) report.Diagnostic.passes_run)));
  Buffer.add_string buf "\"results\":[";
  Buffer.add_string buf
    (String.concat ","
       (List.map (result_json ~rule_index:index_of) report.Diagnostic.diagnostics));
  Buffer.add_string buf "]}";
  Buffer.contents buf

let document runs =
  "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":["
  ^ String.concat "," runs ^ "]}"

let checker_driver = ("waltz_verify", "doc/VERIFIER.md")

let to_sarif ?(families = checker_families) ?(driver = checker_driver) report =
  document [ run_json ~families ~driver ~id:None report ]

let to_sarif_runs named =
  document
    (List.map
       (fun (id, report) ->
         run_json ~families:checker_families ~driver:checker_driver ~id:(Some id) report)
       named)

let to_json (report : Diagnostic.report) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"passes\":[%s],\"ops_checked\":%d,\"errors\":%d,\"warnings\":%d,\"diagnostics\":["
       (String.concat ","
          (List.map (fun p -> Printf.sprintf "\"%s\"" (Json.escape p)) report.Diagnostic.passes_run))
       report.Diagnostic.ops_checked
       (Diagnostic.error_count report) (Diagnostic.warning_count report));
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun (d : Diagnostic.t) ->
            let b = Buffer.create 128 in
            Buffer.add_string b
              (Printf.sprintf "{\"rule\":\"%s\",\"severity\":\"%s\""
                 (Json.escape d.Diagnostic.rule)
                 (Diagnostic.severity_label d.Diagnostic.severity));
            (match d.Diagnostic.op_index with
            | Some i -> Buffer.add_string b (Printf.sprintf ",\"op_index\":%d" i)
            | None -> ());
            (match d.Diagnostic.fix with
            | Some fix -> Buffer.add_string b (Printf.sprintf ",\"fix\":\"%s\"" (Json.escape fix))
            | None -> ());
            Buffer.add_string b
              (Printf.sprintf ",\"message\":\"%s\"}" (Json.escape d.Diagnostic.message));
            Buffer.contents b)
          report.Diagnostic.diagnostics));
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* ---- schema checks ---- *)

exception Bad of string

let validate (text : string) =
  try
    let doc = match Json.parse text with Ok doc -> doc | Error msg -> raise (Bad msg) in
    let str_field ctx obj k =
      match Json.member k obj with
      | Some (Json.Str s) when s <> "" -> s
      | Some (Json.Str _) -> raise (Bad (Printf.sprintf "%s: empty \"%s\"" ctx k))
      | _ -> raise (Bad (Printf.sprintf "%s: missing string \"%s\"" ctx k))
    in
    (match Json.member "version" doc with
    | Some (Json.Str "2.1.0") -> ()
    | _ -> raise (Bad "version must be \"2.1.0\""));
    let runs =
      match Json.member "runs" doc with
      | Some (Json.Arr (_ :: _ as runs)) -> runs
      | _ -> raise (Bad "runs must be a non-empty array")
    in
    let check_run run =
      let driver =
        match Json.member "tool" run with
        | Some tool -> (
          match Json.member "driver" tool with
          | Some d -> d
          | None -> raise (Bad "run.tool.driver missing"))
        | None -> raise (Bad "run.tool missing")
      in
      ignore (str_field "driver" driver "name");
      let rule_ids =
        match Json.member "rules" driver with
        | None -> []
        | Some (Json.Arr rules) ->
          let ids = List.map (fun r -> str_field "rule" r "id") rules in
          let sorted = List.sort_uniq compare ids in
          if List.length sorted <> List.length ids then
            raise (Bad "driver.rules ids are not unique");
          ids
        | Some _ -> raise (Bad "driver.rules must be an array")
      in
      let results =
        match Json.member "results" run with
        | Some (Json.Arr results) -> results
        | None -> []
        | Some _ -> raise (Bad "run.results must be an array")
      in
      List.iteri
        (fun i result ->
          let ctx = Printf.sprintf "results[%d]" i in
          let rule_id = str_field ctx result "ruleId" in
          (if rule_ids <> [] then begin
             if not (List.mem rule_id rule_ids) then
               raise (Bad (Printf.sprintf "%s: ruleId %s not in driver.rules" ctx rule_id))
           end
           else if Rules.find rule_id = None then
             raise
               (Bad
                  (Printf.sprintf "%s: ruleId %s not in the registered rule catalog" ctx
                     rule_id)));
          (match Json.member "ruleIndex" result with
          | Some (Json.Num f) ->
            let idx = int_of_float f in
            if idx < 0 || idx >= List.length rule_ids || List.nth rule_ids idx <> rule_id
            then raise (Bad (Printf.sprintf "%s: ruleIndex disagrees with ruleId" ctx))
          | Some _ -> raise (Bad (Printf.sprintf "%s: ruleIndex must be a number" ctx))
          | None -> ());
          (match Json.member "level" result with
          | Some (Json.Str ("error" | "warning" | "note" | "none")) -> ()
          | _ -> raise (Bad (Printf.sprintf "%s: bad level" ctx)));
          match Json.member "message" result with
          | Some msg -> ignore (str_field ctx msg "text")
          | None -> raise (Bad (Printf.sprintf "%s: message missing" ctx)))
        results;
      List.length results
    in
    Ok (List.fold_left (fun acc run -> acc + check_run run) 0 runs)
  with
  | Bad msg -> Error msg
  | Failure msg -> Error msg
