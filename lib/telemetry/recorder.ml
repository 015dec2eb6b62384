(* Flight recorder: a fixed-size per-domain ring buffer of recent span
   begin/end and counter events. It is the only span store — the Chrome
   trace export, span aggregates, --stats and the profiler all read it — and
   is cheap enough to leave armed on long runs, dumped post-mortem when
   something goes wrong.

   Design points:
   - One process-wide arm flag (an [Atomic.t], also settable via the
     WALTZ_FLIGHT=1 environment knob). Disarmed — the default — every
     instrumented call is a single atomic load, and the recorded results are
     bit-identical to an unrecorded run (the recorder never touches RNG
     streams or reorders work).
   - Each domain writes only its own ring (single-writer, lock-free):
     structure-of-arrays slots (kind/name/time/value/args) addressed by a
     monotonically increasing head modulo the capacity, so old events are
     dropped oldest-first and steady-state recording allocates nothing —
     every write is a store into a preallocated array.
   - The ring also holds its domain's open-span stack in a fixed array, so
     Begin events carry their true depth even after the enclosing Begin was
     overwritten, and the profiler samples the stack without a second store.
   - Readers take no lock against writers: a snapshot tolerates a torn slot
     at the ring head (the pairing pass drops orphans), which we accept in
     exchange for never stalling the hot path. The registry of rings is
     ordered by a mutex and marked for the concurrency sanitizer. *)

module Sanitize = Waltz_sanitizer.Sanitize

let armed_flag = Atomic.make false
let armed () = Atomic.get armed_flag
let arm () = Atomic.set armed_flag true
let disarm () = Atomic.set armed_flag false

let () = match Sys.getenv_opt "WALTZ_FLIGHT" with Some "1" -> arm () | _ -> ()

(* Event kinds, packed as ints in the ring. *)
let k_begin = 0
let k_end = 1
let k_count = 2

(* Sized from the busiest main-track window a reader aggregates: the bench
   phase table's 200 compiles of cnu-7 under mr-ccz write 6800 events, the
   default `waltz_cli report` grid about 3800 and a small
   `simulate --stats` run about 70 — 16384 holds the largest with a 2x
   margin. *)
let default_capacity = 16384

(* Open spans whose names the stack keeps; deeper spans still count towards
   the depth of their children. *)
let max_depth = 64

let capacity_req = Atomic.make default_capacity
let capacity () = Atomic.get capacity_req

(* Bumping the epoch lazily invalidates every ring: writers re-initialize
   their domain's ring the next time they touch it. This is how [reset] and
   [set_capacity] work without coordinating with concurrent writers. *)
let epoch = Atomic.make 0

(* One ring's event slots. Swapped as a whole on a capacity change, so a
   reader that loads [slots] once sees arrays of one length. *)
type slots = {
  kinds : int array;
  names : string array;
  times : float array;     (* us, monotonic *)
  values : int array;      (* Count: the increment; Begin/End: the span's depth *)
  args : (string * string) list array;  (* Begin: the span's args *)
}

type ring = {
  track : int;             (* owning domain's id *)
  mutable ring_epoch : int;
  mutable slots : slots;
  mutable pos : int;       (* next slot to write, wraps at the capacity *)
  mutable total : int;     (* events written since the ring's epoch began *)
  stack : string array;    (* open span names, outermost first *)
  mutable depth : int;     (* open spans on this domain *)
}

let make_slots cap =
  { kinds = Array.make cap 0; names = Array.make cap ""; times = Array.make cap 0.;
    values = Array.make cap 0; args = Array.make cap [] }

(* Invariant (under [registry_mutex]): a ring is in the registry iff its
   [ring_epoch] is the current epoch — [reset] empties the registry as it
   bumps the epoch, and a writer re-registers when it renews its ring. So
   rings of exited domains leave with the next reset, and repeated resets
   never grow it. *)
let registry : ring list ref = ref []
let registry_mutex = Mutex.create ()

let lock_registry () =
  Mutex.lock registry_mutex;
  Sanitize.Lock.acquire "recorder.registry_mutex"

let unlock_registry () =
  Sanitize.Lock.release "recorder.registry_mutex";
  Mutex.unlock registry_mutex

(* Cold path: start the ring's new epoch, reusing its arrays when the
   capacity is unchanged. The open-span stack survives: those spans are
   still open. *)
let renew r =
  lock_registry ();
  Sanitize.Shared.write "recorder.registry";
  let cap = Atomic.get capacity_req in
  if Array.length r.slots.kinds <> cap then r.slots <- make_slots cap;
  r.pos <- 0;
  r.total <- 0;
  r.ring_epoch <- Atomic.get epoch;
  registry := r :: !registry;
  unlock_registry ()

let ring_key : ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { track = (Domain.self () :> int); ring_epoch = -1; slots = make_slots 0; pos = 0;
        total = 0; stack = Array.make max_depth ""; depth = 0 })

(* The hot-path accessor: one DLS read plus an epoch check. *)
let my_ring () =
  let r = Domain.DLS.get ring_key in
  if r.ring_epoch <> Atomic.get epoch then renew r;
  r

(* The writer's whole steady-state cost: four stores and two counter
   bumps. [pos] wraps with a compare instead of an integer division, and
   the stores are unchecked — [pos] is below the slots' length by
   construction and the ring is single-writer. *)
let push r kind name value t_us =
  let s = r.slots in
  let slot = r.pos in
  Array.unsafe_set s.kinds slot kind;
  Array.unsafe_set s.names slot name;
  Array.unsafe_set s.times slot t_us;
  Array.unsafe_set s.values slot value;
  let p = slot + 1 in
  r.pos <- (if p = Array.length s.kinds then 0 else p);
  r.total <- r.total + 1

let begin_at name args t_us =
  let r = my_ring () in
  let d = r.depth in
  if d < max_depth then Array.unsafe_set r.stack d name;
  r.depth <- d + 1;
  Array.unsafe_set r.slots.args r.pos args;
  push r k_begin name d t_us

let end_at name t_us =
  let r = my_ring () in
  let d = if r.depth > 0 then r.depth - 1 else 0 in
  r.depth <- d;
  push r k_end name d t_us

let record_count name by =
  if Atomic.get armed_flag then push (my_ring ()) k_count name by (Clock.now_us ())

let reset () =
  lock_registry ();
  Sanitize.Shared.write "recorder.registry";
  Atomic.incr epoch;
  registry := [];
  unlock_registry ()

let set_capacity n =
  Atomic.set capacity_req (max 16 n);
  reset ()

(* ---- snapshot ---- *)

type kind = Begin | End | Count

type event = {
  kind : kind;
  name : string;
  t_us : float;
  value : int;
  args : (string * string) list;
}

let kind_of = function
  | 0 -> Begin
  | 1 -> End
  | _ -> Count

let rings () =
  lock_registry ();
  Sanitize.Shared.read "recorder.registry";
  let rings = !registry in
  unlock_registry ();
  List.sort (fun a b -> compare a.track b.track) rings

let snapshot_ring r =
  (* Oldest surviving slot first. Taken without locking the writer; see the
     module comment for why a torn head slot is acceptable. *)
  let s = r.slots in
  let cap = Array.length s.kinds in
  let n = min r.total cap in
  let first = r.total - n in
  List.init n (fun i ->
      let slot = (first + i) mod cap in
      let kind = kind_of s.kinds.(slot) in
      { kind; name = s.names.(slot); t_us = s.times.(slot); value = s.values.(slot);
        args = (if kind = Begin then s.args.(slot) else []) })

let events () =
  List.filter_map
    (fun r -> if r.total > 0 then Some (r.track, snapshot_ring r) else None)
    (rings ())

let dropped () =
  List.fold_left
    (fun acc r -> acc + max 0 (r.total - Array.length r.slots.kinds))
    0 (rings ())

(* A reader's window check: each ring's track, epoch and written total at
   the mark. Events written since then were overwritten only where a ring
   wrote more than its capacity in between — wraps before the mark lose
   only older events. *)
type mark = (int * (int * int)) list

let mark () = List.map (fun r -> (r.track, (r.ring_epoch, r.total))) (rings ())

let overwritten_since (m : mark) =
  List.fold_left
    (fun acc r ->
      let since =
        match List.assoc_opt r.track m with
        | Some (e, total) when e = r.ring_epoch -> r.total - total
        | _ -> r.total
      in
      acc + max 0 (since - Array.length r.slots.kinds))
    0 (rings ())

let open_stacks () =
  List.map
    (fun r ->
      let d = min r.depth max_depth in
      (r.track, List.init d (fun i -> r.stack.(d - 1 - i))))
    (rings ())

(* ---- spans ---- *)

type span = {
  name : string;
  track : int;
  start_us : float;
  dur_us : float;
  depth : int;
  parent : string option;
  args : (string * string) list;
}

(* Pairs one track's Begin/End events into completed spans and the spans
   still open at the newest event (innermost first). Wraparound can orphan
   an End whose Begin was overwritten: it finds no open span of its name
   and depth and is skipped. A span whose enclosing Begin was dropped keeps
   the depth its Begin recorded but has no parent. *)
let pair_track (track, (evs : event list)) =
  let closed = ref [] and stack = ref [] in
  List.iter
    (fun (e : event) ->
      match e.kind with
      | Begin ->
        let parent =
          match !stack with
          | p :: _ when p.depth = e.value - 1 -> Some p.name
          | _ -> None
        in
        stack :=
          { name = e.name; track; start_us = e.t_us; dur_us = 0.; depth = e.value;
            parent; args = e.args }
          :: !stack
      | End -> begin
        match !stack with
        | s :: rest when s.name = e.name && s.depth = e.value ->
          stack := rest;
          closed := { s with dur_us = e.t_us -. s.start_us } :: !closed
        | _ -> ()
      end
      | Count -> ())
    evs;
  (!closed, !stack)

(* One track per domain, spans by start time with the enclosing span first
   on ties, so each track is monotone and well-nested in list order. *)
let by_track_and_start (a : span) (b : span) =
  match compare a.track b.track with
  | 0 -> begin
    match compare a.start_us b.start_us with 0 -> compare b.dur_us a.dur_us | c -> c
  end
  | c -> c

let spans () =
  List.sort by_track_and_start (List.concat_map (fun t -> fst (pair_track t)) (events ()))

let track_name track = if track = 0 then "main" else Printf.sprintf "domain-%d" track

(* The one Chrome trace writer. Spans still open are closed at write time
   and suffixed " (unclosed)", so a crash dump shows the frontier. *)
let trace_json_of per_track =
  let now = Clock.now_us () in
  let spans =
    List.concat_map
      (fun t ->
        let closed, open_ = pair_track t in
        closed
        @ List.map
            (fun s ->
              { s with name = s.name ^ " (unclosed)";
                       dur_us = Float.max 0. (now -. s.start_us) })
            open_)
      per_track
    |> List.sort by_track_and_start
  in
  let tracks = List.sort_uniq compare (List.map (fun (s : span) -> s.track) spans) in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let event s =
    if not !first then Buffer.add_char b ',';
    first := false;
    Buffer.add_string b "\n";
    Buffer.add_string b s
  in
  List.iter
    (fun track ->
      event
        (Printf.sprintf
           "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           track (track_name track)))
    tracks;
  List.iter
    (fun (s : span) ->
      let args =
        match s.args with
        | [] -> ""
        | kvs ->
          ",\"args\":{"
          ^ String.concat ","
              (List.map
                 (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v))
                 kvs)
          ^ "}"
      in
      event
        (Printf.sprintf
           "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"waltz\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f%s}"
           (Json.escape s.name) s.track s.start_us (Float.max 0. s.dur_us) args))
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let trace_json () = trace_json_of (events ())

(* ---- post-mortem dumps ---- *)

let text_dump ~reason per_track =
  let b = Buffer.create 2048 in
  Buffer.add_string b (Printf.sprintf "== waltz flight recorder ==\nreason: %s\n" reason);
  List.iter
    (fun (track, evs) ->
      Buffer.add_string b
        (Printf.sprintf "-- %s: %d event%s --\n" (track_name track) (List.length evs)
           (if List.length evs = 1 then "" else "s"));
      List.iter
        (fun (e : event) ->
          let line =
            match e.kind with
            | Begin -> Printf.sprintf "  %12.3f  begin  %s\n" e.t_us e.name
            | End -> Printf.sprintf "  %12.3f  end    %s\n" e.t_us e.name
            | Count -> Printf.sprintf "  %12.3f  count  %s +%d\n" e.t_us e.name e.value
          in
          Buffer.add_string b line)
        evs)
    per_track;
  if per_track = [] then Buffer.add_string b "(no events recorded)\n";
  Buffer.contents b

let dump_dir =
  ref (match Sys.getenv_opt "WALTZ_FLIGHT_DIR" with
      | Some d -> d
      | None -> Filename.get_temp_dir_name ())

let set_dump_dir d = dump_dir := d

let last_dump_ref : (string * string) option ref = ref None
let last_dump () = !last_dump_ref

let dump_seq = Atomic.make 0

let sanitize_label label =
  String.map (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c | _ -> '-')
    label

(* Dumps are rate-limited per process so an error storm (every Error
   diagnostic fires one) cannot fill the disk. *)
let dump_budget = Atomic.make 8

let dump ~reason =
  if Atomic.get armed_flag && Atomic.fetch_and_add dump_budget (-1) > 0 then begin
    let per_track = events () in
    let seq = Atomic.fetch_and_add dump_seq 1 in
    (try Unix.mkdir !dump_dir 0o755 with Unix.Unix_error _ -> ());
    let prefix =
      Filename.concat !dump_dir
        (Printf.sprintf "waltz-flight-%d-%d-%s" (Unix.getpid ()) seq (sanitize_label reason))
    in
    let trace_path = prefix ^ ".trace.json" in
    let text_path = prefix ^ ".txt" in
    let write path contents =
      let oc = open_out path in
      output_string oc contents;
      close_out oc
    in
    write trace_path (trace_json_of per_track);
    write text_path (text_dump ~reason per_track);
    last_dump_ref := Some (trace_path, text_path)
  end

let note_error ~reason = dump ~reason:("diagnostic:" ^ reason)

let with_crash_dump ~label f =
  if not (Atomic.get armed_flag) then f ()
  else
    try f ()
    with exn ->
      let bt = Printexc.get_raw_backtrace () in
      dump ~reason:("crash:" ^ label);
      Printexc.raise_with_backtrace exn bt
