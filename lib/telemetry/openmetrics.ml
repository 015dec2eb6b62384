(* OpenMetrics / Prometheus text exposition for the telemetry catalog.

   This is the scrape surface a future `waltz_cli serve` exposes; today it
   backs `waltz_cli metrics` and `Telemetry.export_openmetrics`. The module
   is pure — the caller passes snapshot data — so it sits below telemetry in
   the layering and is trivially testable.

   The [validate] function is a self-contained checker in the spirit of
   [Telemetry.Trace.validate]: it re-parses an exposition and verifies the
   structural promises the renderer makes, so `make metrics-smoke` can gate
   lint without external tooling. *)

type summary = {
  s_name : string;  (* raw dotted metric name, e.g. "executor.block_us" *)
  s_count : int;
  s_sum : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_max : float;
}

(* Dotted telemetry names become Prometheus names: dots and other invalid
   characters to underscores, a "waltz_" namespace prefix. *)
let metric_name raw =
  let b = Buffer.create (String.length raw + 6) in
  Buffer.add_string b "waltz_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    raw;
  Buffer.contents b

let render ~counters ~gauges ~summaries =
  let b = Buffer.create 2048 in
  let meta name typ help =
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help)
  in
  List.iter
    (fun (raw, v) ->
      let name = metric_name raw in
      meta name "counter" (Printf.sprintf "waltz counter %s" raw);
      Buffer.add_string b (Printf.sprintf "%s_total %d\n" name v))
    counters;
  List.iter
    (fun (raw, v) ->
      let name = metric_name raw in
      meta name "gauge" (Printf.sprintf "waltz gauge %s" raw);
      Buffer.add_string b (Printf.sprintf "%s %.6g\n" name v))
    gauges;
  List.iter
    (fun s ->
      let name = metric_name s.s_name in
      meta name "summary" (Printf.sprintf "waltz histogram %s (sketch quantiles)" s.s_name);
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"0.5\"} %.6g\n" name s.s_p50);
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"0.9\"} %.6g\n" name s.s_p90);
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"0.99\"} %.6g\n" name s.s_p99);
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"1\"} %.6g\n" name s.s_max);
      Buffer.add_string b (Printf.sprintf "%s_sum %.6g\n" name s.s_sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" name s.s_count))
    summaries;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* ---- validation ---- *)

let is_name_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false
let is_name_char c = is_name_start c || (match c with '0' .. '9' -> true | _ -> false)

let valid_name s =
  String.length s > 0
  && is_name_start s.[0]
  && String.for_all is_name_char s

(* Splits "name{labels} value" into (name, labels option, value). *)
let split_sample line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do incr i done;
  if !i = 0 then Error "sample line does not start with a metric name"
  else begin
    let name = String.sub line 0 !i in
    let labels, rest_start =
      if !i < n && line.[!i] = '{' then begin
        (* find the closing brace, skipping quoted sections *)
        let j = ref (!i + 1) in
        let in_str = ref false in
        let ok = ref false in
        while !j < n && not !ok do
          (match line.[!j] with
          | '"' -> in_str := not !in_str
          | '\\' when !in_str -> incr j
          | '}' when not !in_str -> ok := true
          | _ -> ());
          if not !ok then incr j
        done;
        if !ok then (Some (String.sub line (!i + 1) (!j - !i - 1)), !j + 1)
        else (None, n + 1)
      end
      else (None, !i)
    in
    if rest_start > n then Error "unterminated label set"
    else begin
      let rest = String.sub line rest_start (n - rest_start) in
      let rest = String.trim rest in
      match String.split_on_char ' ' rest with
      | [ v ] | [ v; _ ] when v <> "" -> begin
        match float_of_string_opt v with
        | Some f -> Ok (name, labels, f)
        | None -> Error (Printf.sprintf "sample value %S is not a number" v)
      end
      | _ -> Error "sample line missing a value"
    end
  end

let quantile_of_labels labels =
  (* labels like: quantile="0.5" *)
  let parts = String.split_on_char ',' labels in
  List.find_map
    (fun p ->
      match String.index_opt p '=' with
      | Some i when String.trim (String.sub p 0 i) = "quantile" ->
        let v = String.trim (String.sub p (i + 1) (String.length p - i - 1)) in
        let v =
          if String.length v >= 2 && v.[0] = '"' && v.[String.length v - 1] = '"' then
            String.sub v 1 (String.length v - 2)
          else v
        in
        float_of_string_opt v
      | _ -> None)
    parts

(* Strips a known suffix; returns the base family name. *)
let strip_suffix name =
  let try_one suffix =
    let ln = String.length name and ls = String.length suffix in
    if ln > ls && String.sub name (ln - ls) ls = suffix then Some (String.sub name 0 (ln - ls))
    else None
  in
  match try_one "_total" with
  | Some base -> (base, `Total)
  | None -> begin
    match try_one "_sum" with
    | Some base -> (base, `Sum)
    | None -> begin
      match try_one "_count" with
      | Some base -> (base, `Count)
      | None -> (name, `Bare)
    end
  end

(* Validate an exposition: every family declared once with a known type,
   every sample syntactically well-formed and attributable to a declared
   family with a suffix that type allows (counter: _total; summary: bare
   with a quantile label in [0,1], _sum, _count; gauge: bare), counts
   nonnegative, and the text terminated by exactly one trailing "# EOF".
   Returns (samples, families). *)
let validate contents =
  let lines = String.split_on_char '\n' contents in
  (* drop a final empty segment from the trailing newline *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let families : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let n_samples = ref 0 in
  let rec go saw_eof = function
    | [] -> if saw_eof then Ok (!n_samples, Hashtbl.length families) else Error "missing # EOF"
    | _ :: _ when saw_eof -> Error "content after # EOF"
    | line :: rest ->
      if line = "# EOF" then go true rest
      else if line = "" then go saw_eof rest
      else if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: [ typ ] ->
          if not (valid_name name) then Error (Printf.sprintf "invalid family name %S" name)
          else if Hashtbl.mem families name then
            Error (Printf.sprintf "duplicate # TYPE for %s" name)
          else if not (List.mem typ [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ])
          then Error (Printf.sprintf "unknown metric type %S" typ)
          else begin
            Hashtbl.add families name typ;
            go saw_eof rest
          end
        | "#" :: "HELP" :: name :: _ ->
          if valid_name name then go saw_eof rest
          else Error (Printf.sprintf "HELP for invalid name %S" name)
        | _ -> Error (Printf.sprintf "malformed comment line %S" line)
      end
      else begin
        match split_sample line with
        | Error e -> Error e
        | Ok (name, labels, value) ->
          let base, suffix = strip_suffix name in
          let family =
            match Hashtbl.find_opt families name with
            | Some t -> Some (name, t, `Bare)
            | None -> begin
              match Hashtbl.find_opt families base with
              | Some t -> Some (base, t, suffix)
              | None -> None
            end
          in
          begin
            match family with
            | None -> Error (Printf.sprintf "sample %S has no # TYPE declaration" name)
            | Some (_, "counter", `Total) ->
              if value < 0. then Error (Printf.sprintf "counter %s is negative" name)
              else begin
                incr n_samples;
                go saw_eof rest
              end
            | Some (_, "counter", _) ->
              Error (Printf.sprintf "counter sample %S must use the _total suffix" name)
            | Some (_, "gauge", `Bare) ->
              incr n_samples;
              go saw_eof rest
            | Some (_, "gauge", _) ->
              Error (Printf.sprintf "gauge sample %S must not use a suffix" name)
            | Some (_, "summary", `Sum) ->
              incr n_samples;
              go saw_eof rest
            | Some (_, "summary", `Count) ->
              if value < 0. then Error (Printf.sprintf "summary count %s is negative" name)
              else begin
                incr n_samples;
                go saw_eof rest
              end
            | Some (_, "summary", `Bare) -> begin
              match Option.bind labels quantile_of_labels with
              | Some q when q >= 0. && q <= 1. ->
                incr n_samples;
                go saw_eof rest
              | Some q -> Error (Printf.sprintf "quantile %g out of [0,1] on %s" q name)
              | None ->
                Error (Printf.sprintf "summary sample %S lacks a quantile label" name)
            end
            | Some (_, typ, _) ->
              Error (Printf.sprintf "sample %S not valid for %s family" name typ)
          end
      end
  in
  go false lines
