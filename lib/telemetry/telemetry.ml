(* Process-wide tracing and metrics for the Waltz pipeline.

   Each datum has one store. Spans live only in the flight recorder's
   per-domain rings ([Recorder]): [Span.with_] writes a Begin/End pair
   there when the recorder is armed, and every span reader (aggregates,
   the report, the Chrome trace) pairs ring events. Counters live only in
   interned atomic cells and histograms only in per-domain sketch series;
   the string-keyed [Metrics.incr]/[observe] write through the same
   handles. Disabled, every entry point is a single branch on an
   [Atomic.t] and performs no allocation, so instrumented hot paths cost
   nothing in production. *)

module Sanitize = Waltz_sanitizer.Sanitize

(* [metrics_flag]: counters, gauges and histogram sketches accumulate.
   Spans follow the recorder's own arm flag. [enable] turns on both;
   [disable] disarms the recorder again only if [enable] was what armed
   it, so a standing arm (WALTZ_FLIGHT=1, an explicit [Recorder.arm])
   outlives a --stats bracket. *)
let metrics_flag = Atomic.make false
let armed_by_enable = Atomic.make false

let metrics_enabled () = Atomic.get metrics_flag
let enable_metrics () = Atomic.set metrics_flag true

let enable () =
  Atomic.set metrics_flag true;
  if not (Recorder.armed ()) then begin
    Atomic.set armed_by_enable true;
    Recorder.arm ()
  end

let disable () =
  Atomic.set metrics_flag false;
  if Atomic.exchange armed_by_enable false then Recorder.disarm ()

(* True when any instrumented path should run: the metrics tier or the
   flight recorder. *)
let active () = Atomic.get metrics_flag || Recorder.armed ()

let now_us () = Clock.now_us ()

(* ---- shared state ---- *)

let state_mutex = Mutex.create ()

(* Sanitizer shims wrap every state_mutex section; the shared-site marks at
   each mutation/read let the race detector check that all traffic on the
   cell, series and gauge tables is ordered by this lock. *)
let lock_state () =
  Mutex.lock state_mutex;
  Sanitize.Lock.acquire "telemetry.state_mutex"

let unlock_state () =
  Sanitize.Lock.release "telemetry.state_mutex";
  Mutex.unlock state_mutex

module Span = struct
  type t = Recorder.span = {
    name : string;
    track : int;
    start_us : float;
    dur_us : float;
    depth : int;
    parent : string option;
    args : (string * string) list;
  }

  (* Exactly two clock reads when armed; the End is written even if the
     recorder is disarmed meanwhile, so the domain's stack stays balanced. *)
  let with_ ?(args = []) ~name f =
    if not (Recorder.armed ()) then f ()
    else begin
      Recorder.begin_at name args (Clock.now_us ());
      match f () with
      | v ->
        Recorder.end_at name (Clock.now_us ());
        v
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        Recorder.end_at name (Clock.now_us ());
        Printexc.raise_with_backtrace exn bt
    end

  let all = Recorder.spans

  type aggregate = { agg_name : string; count : int; total_us : float; max_us : float }

  let aggregate_of spans =
    let tbl : (string, int * float * float) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let c, t, m = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl s.name) in
        Hashtbl.replace tbl s.name (c + 1, t +. s.dur_us, Float.max m s.dur_us))
      spans;
    Hashtbl.fold
      (fun agg_name (count, total_us, max_us) acc ->
        { agg_name; count; total_us; max_us } :: acc)
      tbl []
    |> List.sort (fun a b ->
           match compare b.total_us a.total_us with
           | 0 -> compare a.agg_name b.agg_name
           | c -> c)

  let aggregate () = aggregate_of (all ())

  exception Overwritten of int

  (* The spans are read before the overwrite check, so a window event
     missing from them was overwritten by a write the check counts. *)
  let aggregate_during f =
    let mark = Recorder.mark () in
    let t0 = Clock.now_us () in
    let v = f () in
    let t1 = Clock.now_us () in
    let spans = all () in
    let lost = Recorder.overwritten_since mark in
    if lost > 0 then raise (Overwritten lost);
    let inside s = s.start_us >= t0 && s.start_us +. s.dur_us <= t1 in
    (v, aggregate_of (List.filter inside spans))
end

module Metrics = struct
  let gauges_tbl : (string, float) Hashtbl.t = Hashtbl.create 8

  (* The counter and histogram stores. A [cell] is one atomic int interned
     by name (the executor interns its handles at setup time and stores
     them in its compiled plan): incrementing is a flag check plus one
     fetch-and-add, with no string hashing, locking or flight-recorder
     event — the price of admission for per-gate-application counting
     inside a microsecond trajectory. [incr] interns the cell on each call
     instead, fine once per pipeline phase. *)
  type cell = int Atomic.t

  let cells_tbl : (string, cell) Hashtbl.t = Hashtbl.create 16

  let cell name =
    lock_state ();
    Sanitize.Shared.write "telemetry.cells";
    let c =
      match Hashtbl.find_opt cells_tbl name with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.add cells_tbl name c;
        c
    in
    unlock_state ();
    c

  let cell_incr ?(by = 1) c =
    if by <> 0 && Atomic.get metrics_flag then ignore (Atomic.fetch_and_add c by)

  (* Pre-gated variant: no flag check, for call sites that already
     branched on [metrics_enabled] once for a batch of updates. *)
  let cell_add c by = if by <> 0 then ignore (Atomic.fetch_and_add c by)

  (* A series is sharded per recording domain: each domain owns one sketch
     (single-writer, so [series_observe] takes no lock — a DLS read, an
     epoch check and an allocation-free sketch insert) and readers merge
     the shards. The shard list is guarded by the state mutex; the sketch
     contents are read racily, like the flight-recorder rings — a snapshot
     taken while a worker is mid-observe can be off by the torn event,
     which post-run reporting tolerates. The epoch makes [reset] lazy:
     bumping it orphans every shard, and writers re-register on next use. *)
  type series = {
    se_epoch : int Atomic.t;
    mutable se_shards : (int * Sketch.t) list;  (* (epoch, shard) *)
    se_dls : (int * Sketch.t) ref Domain.DLS.key;
  }

  (* Shared placeholder with an impossible epoch: forces first-use
     registration without allocating a sketch per (domain, series) that
     never observes. Never written (the epoch check replaces it first). *)
  let dummy_shard = (-1, Sketch.create ())

  let series_tbl : (string, series) Hashtbl.t = Hashtbl.create 8

  let series name =
    lock_state ();
    Sanitize.Shared.write "telemetry.series";
    let s =
      match Hashtbl.find_opt series_tbl name with
      | Some s -> s
      | None ->
        let s =
          { se_epoch = Atomic.make 0; se_shards = [];
            se_dls = Domain.DLS.new_key (fun () -> ref dummy_shard) }
        in
        Hashtbl.add series_tbl name s;
        s
    in
    unlock_state ();
    s

  let register_shard s epoch =
    let sk = Sketch.create () in
    lock_state ();
    Sanitize.Shared.write "telemetry.series";
    (* Prune shards orphaned by reset while we are here (cold path). *)
    s.se_shards <- (epoch, sk) :: List.filter (fun (e, _) -> e = epoch) s.se_shards;
    unlock_state ();
    sk

  let series_observe s v =
    if Atomic.get metrics_flag then begin
      let slot = Domain.DLS.get s.se_dls in
      let epoch = Atomic.get s.se_epoch in
      let e, sk = !slot in
      let sk =
        if e = epoch then sk
        else begin
          let sk = register_shard s epoch in
          slot := (epoch, sk);
          sk
        end
      in
      Sketch.observe sk v
    end

  let incr ?(by = 1) name =
    if Atomic.get metrics_flag then cell_add (cell name) by;
    Recorder.record_count name by

  let observe name v = if Atomic.get metrics_flag then series_observe (series name) v

  let set_gauge name v =
    if Atomic.get metrics_flag then begin
      lock_state ();
      Sanitize.Shared.write "telemetry.gauges";
      Hashtbl.replace gauges_tbl name v;
      unlock_state ()
    end

  let counter name =
    lock_state ();
    Sanitize.Shared.read "telemetry.cells";
    let c = Hashtbl.find_opt cells_tbl name in
    unlock_state ();
    match c with Some c -> Atomic.get c | None -> 0

  let counters () =
    lock_state ();
    Sanitize.Shared.read "telemetry.cells";
    let l =
      Hashtbl.fold
        (fun name c acc ->
          let v = Atomic.get c in
          if v <> 0 then (name, v) :: acc else acc)
        cells_tbl []
    in
    unlock_state ();
    List.sort compare l

  let gauge name =
    lock_state ();
    Sanitize.Shared.read "telemetry.gauges";
    let v = Hashtbl.find_opt gauges_tbl name in
    unlock_state ();
    v

  let gauges () =
    lock_state ();
    Sanitize.Shared.read "telemetry.gauges";
    let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauges_tbl [] in
    unlock_state ();
    List.sort compare l

  type histogram = {
    count : int;
    sum : float;
    min : float;
    max : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  (* Merge a series' live shards. Shard contents are read without
     synchronizing with their owning domains (see the [series] comment). *)
  let series_sketch s =
    lock_state ();
    Sanitize.Shared.read "telemetry.series";
    let epoch = Atomic.get s.se_epoch in
    let shards =
      List.filter_map (fun (e, sk) -> if e = epoch then Some sk else None) s.se_shards
    in
    unlock_state ();
    List.fold_left Sketch.merge (Sketch.create ()) shards

  let snapshot s =
    let h = series_sketch s in
    if Sketch.count h = 0 then None
    else
      Some
        { count = Sketch.count h; sum = Sketch.sum h; min = Sketch.min_value h;
          max = Sketch.max_value h; p50 = Sketch.quantile h 0.5;
          p90 = Sketch.quantile h 0.9; p99 = Sketch.quantile h 0.99 }

  let histogram name =
    lock_state ();
    Sanitize.Shared.read "telemetry.series";
    let s = Hashtbl.find_opt series_tbl name in
    unlock_state ();
    Option.bind s snapshot

  let histograms () =
    lock_state ();
    Sanitize.Shared.read "telemetry.series";
    let all = Hashtbl.fold (fun name s acc -> (name, s) :: acc) series_tbl [] in
    unlock_state ();
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (List.filter_map (fun (name, s) -> Option.map (fun h -> (name, h)) (snapshot s)) all)

  let hit_rate ~hit ~miss =
    let h = counter hit and m = counter miss in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
end

let reset () =
  Recorder.reset ();
  lock_state ();
  Sanitize.Shared.write "telemetry.cells";
  Sanitize.Shared.write "telemetry.series";
  Sanitize.Shared.write "telemetry.gauges";
  Hashtbl.reset Metrics.gauges_tbl;
  (* Handles survive reset (instrumented code holds them) — only their
     contents are cleared. *)
  Hashtbl.iter (fun _ (c : Metrics.cell) -> Atomic.set c 0) Metrics.cells_tbl;
  (* Series: bumping the epoch orphans every shard (writers re-register on
     next observe); the shard lists are dropped here under the same lock. *)
  Hashtbl.iter
    (fun _ (s : Metrics.series) ->
      Atomic.incr s.Metrics.se_epoch;
      s.Metrics.se_shards <- [])
    Metrics.series_tbl;
  unlock_state ()

module Report = struct
  let to_string () =
    let b = Buffer.create 1024 in
    let spans = Span.aggregate () in
    Buffer.add_string b "== waltz telemetry ==\n";
    if spans <> [] then begin
      Buffer.add_string b
        (Printf.sprintf "%-28s %8s %12s %12s %12s\n" "span" "count" "total(ms)"
           "mean(us)" "max(us)");
      List.iter
        (fun (a : Span.aggregate) ->
          Buffer.add_string b
            (Printf.sprintf "%-28s %8d %12.3f %12.1f %12.1f\n" a.Span.agg_name a.Span.count
               (a.Span.total_us /. 1000.)
               (a.Span.total_us /. float_of_int (max 1 a.Span.count))
               a.Span.max_us))
        spans
    end;
    let counters = Metrics.counters () in
    if counters <> [] then begin
      Buffer.add_string b "counters:\n";
      List.iter
        (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-34s %10d\n" name v))
        counters
    end;
    let gauges = Metrics.gauges () in
    if gauges <> [] then begin
      Buffer.add_string b "gauges:\n";
      List.iter
        (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-34s %10.1f\n" name v))
        gauges
    end;
    let hists = Metrics.histograms () in
    if hists <> [] then begin
      Buffer.add_string b "histograms:\n";
      List.iter
        (fun (name, (h : Metrics.histogram)) ->
          Buffer.add_string b
            (Printf.sprintf
               "  %-34s n=%d mean=%.1f min=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f\n" name
               h.Metrics.count
               (h.Metrics.sum /. float_of_int (max 1 h.Metrics.count))
               h.Metrics.min h.Metrics.p50 h.Metrics.p90 h.Metrics.p99 h.Metrics.max))
        hists
    end;
    if spans = [] && counters = [] && gauges = [] && hists = [] then
      Buffer.add_string b "(no telemetry recorded; is the instrumented path enabled?)\n";
    Buffer.add_string b
      (Printf.sprintf "flight-recorder events dropped: %d (ring capacity %d per domain)\n"
         (Recorder.dropped ()) (Recorder.capacity ()));
    Buffer.contents b
end

(* ---- Chrome trace_event export and validation ---- *)

module Trace = struct
  let to_json = Recorder.trace_json

  let write path =
    let oc = open_out path in
    output_string oc (to_json ());
    close_out oc

  (* Validate the shape the exporter promises: a traceEvents array whose
     "X" events carry name/ts/dur/pid/tid, listed in nondecreasing ts order
     per track, siblings never partially overlapping (well-nested). The
     JSON parsing itself lives in [Json]. *)
  let validate contents =
    let eps = 1e-6 in
    match Json.parse contents with
    | Error msg -> Error ("invalid JSON: " ^ msg)
    | Ok (Json.Obj fields) -> begin
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.Arr events) -> begin
        let tracks : (float, float list ref * float ref) Hashtbl.t = Hashtbl.create 8 in
        (* tid -> (containment stack of end times, last ts seen) *)
        let n_spans = ref 0 in
        let check_event = function
          | Json.Obj ev -> begin
            match List.assoc_opt "ph" ev with
            | Some (Json.Str "X") -> begin
              match
                ( List.assoc_opt "name" ev, List.assoc_opt "ts" ev, List.assoc_opt "dur" ev,
                  List.assoc_opt "pid" ev, List.assoc_opt "tid" ev )
              with
              | Some (Json.Str _), Some (Json.Num ts), Some (Json.Num dur),
                Some (Json.Num _), Some (Json.Num tid) ->
                if ts < 0. || dur < 0. then Error "negative ts or dur"
                else begin
                  incr n_spans;
                  let stack, last_ts =
                    match Hashtbl.find_opt tracks tid with
                    | Some entry -> entry
                    | None ->
                      let entry = (ref [], ref neg_infinity) in
                      Hashtbl.add tracks tid entry;
                      entry
                  in
                  if ts +. eps < !last_ts then
                    Error (Printf.sprintf "track %g: ts not monotone (%g after %g)" tid ts !last_ts)
                  else begin
                    last_ts := ts;
                    let rec popped = function
                      | e :: rest when e <= ts +. eps -> popped rest
                      | stack -> stack
                    in
                    let remaining = popped !stack in
                    match remaining with
                    | enclosing :: _ when ts +. dur > enclosing +. eps ->
                      Error
                        (Printf.sprintf
                           "track %g: span [%g, %g] partially overlaps one ending at %g" tid ts
                           (ts +. dur) enclosing)
                    | _ ->
                      stack := (ts +. dur) :: remaining;
                      Ok ()
                  end
                end
              | _ -> Error "X event missing name/ts/dur/pid/tid"
            end
            | Some (Json.Str "M") -> Ok ()
            | Some (Json.Str ph) -> Error (Printf.sprintf "unexpected event phase %S" ph)
            | _ -> Error "event without a ph field"
          end
          | _ -> Error "traceEvents element is not an object"
        in
        let rec check = function
          | [] -> Ok (!n_spans, Hashtbl.length tracks)
          | ev :: rest -> begin
            match check_event ev with Ok () -> check rest | Error msg -> Error msg
          end
        in
        check events
      end
      | _ -> Error "traceEvents missing or not an array"
    end
    | Ok _ -> Error "top-level JSON value is not an object"
end
