(* Bench regression tracking: compares a current BENCH_micro.json-shaped
   record against a committed baseline and reports findings when a metric
   moved past its threshold. Backs `waltz_cli report --baseline` (exit
   nonzero on regression) and `make regress-check`; `make bench-json`
   appends each fresh record to BENCH_history.jsonl so the trend is kept.

   Micro-benchmark timings are noisy, so the default ns/run threshold is
   deliberately loose (25 %): the gate exists to catch "the hot path got 2×
   slower", not 3 % noise. Only metrics present in BOTH records are
   compared — adding or removing benchmarks never trips the gate. *)

type thresholds = {
  ns_pct : float;  (* max allowed ns/run increase, percent *)
  hit_rate_drop : float;  (* max allowed absolute cache hit-rate drop *)
  divergence_rise : float;  (* max allowed absolute mask-divergence-rate rise *)
}

let default_thresholds = { ns_pct = 25.; hit_rate_drop = 0.10; divergence_rise = 0.05 }

type finding = {
  metric : string;
  baseline_v : float;
  current_v : float;
  detail : string;
}

let pp_finding f =
  Printf.sprintf "REGRESSION %-42s baseline %.4g -> current %.4g (%s)" f.metric f.baseline_v
    f.current_v f.detail

(* Numeric leaf lookup along a dotted path. *)
let lookup path json =
  let rec go keys json =
    match keys with
    | [] -> Json.num json
    | k :: rest -> begin
      match Json.member k json with Some v -> go rest v | None -> None
    end
  in
  go (String.split_on_char '.' path) json

let both path baseline current =
  match (lookup path baseline, lookup path current) with
  | Some b, Some c -> Some (b, c)
  | _ -> None

(* Cache hit-rates and utilization: lower is worse. *)
let rate_paths =
  [ "telemetry.lift_gate_hit_rate"; "telemetry.pool_utilization" ]

let compare_json ?(thresholds = default_thresholds) ~baseline ~current () =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* ns/run entries: higher is worse. *)
  (match (Json.member "ns_per_run" baseline, Json.member "ns_per_run" current) with
  | Some b, Some c -> begin
    match Json.obj_fields b with
    | Some fields ->
      List.iter
        (fun (name, bv) ->
          match (Json.num bv, Option.bind (Json.member name c) Json.num) with
          | Some bv, Some cv ->
            let limit = bv *. (1. +. (thresholds.ns_pct /. 100.)) in
            if cv > limit then
              add
                { metric = "ns_per_run." ^ name; baseline_v = bv; current_v = cv;
                  detail =
                    Printf.sprintf "+%.1f%% > +%.0f%% allowed"
                      ((cv -. bv) /. bv *. 100.)
                      thresholds.ns_pct }
          | _ -> ())
        fields
    | None -> ()
  end
  | _ -> ());
  List.iter
    (fun path ->
      match both path baseline current with
      | Some (bv, cv) ->
        if cv < bv -. thresholds.hit_rate_drop then
          add
            { metric = path; baseline_v = bv; current_v = cv;
              detail =
                Printf.sprintf "dropped %.3f > %.3f allowed" (bv -. cv)
                  thresholds.hit_rate_drop }
      | None -> ())
    rate_paths;
  (match both "batch.mask_divergence_rate" baseline current with
  | Some (bv, cv) ->
    if cv > bv +. thresholds.divergence_rise then
      add
        { metric = "batch.mask_divergence_rate"; baseline_v = bv; current_v = cv;
          detail =
            Printf.sprintf "rose %.4f > %.4f allowed" (cv -. bv) thresholds.divergence_rise }
  | None -> ());
  (* Admission-control certification must stay cheap: certify ns/op gates
     like a ns_per_run entry (higher is worse, same loose threshold). *)
  (match both "resource.certify_ns_per_op" baseline current with
  | Some (bv, cv) when bv > 0. ->
    let limit = bv *. (1. +. (thresholds.ns_pct /. 100.)) in
    if cv > limit then
      add
        { metric = "resource.certify_ns_per_op"; baseline_v = bv; current_v = cv;
          detail =
            Printf.sprintf "+%.1f%% > +%.0f%% allowed"
              ((cv -. bv) /. bv *. 100.)
              thresholds.ns_pct }
  | _ -> ());
  List.rev !findings

let compare_strings ?thresholds ~baseline ~current () =
  match Json.parse baseline with
  | Error e -> Error ("baseline: invalid JSON: " ^ e)
  | Ok b -> begin
    match Json.parse current with
    | Error e -> Error ("current: invalid JSON: " ^ e)
    | Ok c -> Ok (compare_json ?thresholds ~baseline:b ~current:c ())
  end

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compare_files ?thresholds ~baseline ~current () =
  match
    (try Ok (read_file baseline) with Sys_error e -> Error e)
  with
  | Error e -> Error ("baseline: " ^ e)
  | Ok b -> begin
    match (try Ok (read_file current) with Sys_error e -> Error e) with
    | Error e -> Error ("current: " ^ e)
    | Ok c -> compare_strings ?thresholds ~baseline:b ~current:c ()
  end
