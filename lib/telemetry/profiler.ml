(* Sampling profiler: a ticker domain periodically snapshots every
   recording domain's open-span stack ([Recorder.open_stacks]) and
   accumulates flamegraph-compatible folded stacks — "frame;frame;frame
   count" lines, root first — so "where do trajectory nanoseconds go" is
   answerable without external tooling.

   Sampling is deliberately unsynchronized with the profiled domains (the
   stacks are single-writer arrays in the rings, read racily); a sample
   that tears a stack mid-update merely lands one tick in a neighboring
   frame, which is noise a sampling profiler already carries. The sample
   table is private to the ticker until [stop] joins it, so no lock is
   needed — the fork and join edges are marked for the concurrency
   sanitizer. *)

module Sanitize = Waltz_sanitizer.Sanitize

let default_hz = 97 (* prime, to avoid beating against periodic work *)

let hz_from_env () =
  match Sys.getenv_opt "WALTZ_PROFILE_HZ" with
  | Some s -> begin
    match int_of_string_opt (String.trim s) with
    | Some hz when hz > 0 -> hz
    | _ -> default_hz
  end
  | None -> default_hz

(* Pure folding of one sampled stack: innermost-first spans become a
   root-first semicolon-joined key under the domain frame. An idle domain
   (empty stack) folds to just its domain frame. *)
let folded_key ~track ~stack =
  String.concat ";" (Recorder.track_name track :: List.rev stack)

type t = {
  samples : (string, int) Hashtbl.t;  (* written only by the ticker *)
  running : bool Atomic.t;
  ticker : unit Domain.t;
  token : Sanitize.Domains.token;
}

let start ?hz () =
  let hz = match hz with Some hz when hz > 0 -> hz | _ -> hz_from_env () in
  let period = 1. /. float_of_int hz in
  let samples = Hashtbl.create 64 in
  let running = Atomic.make true in
  let token = Sanitize.Domains.fork () in
  let ticker =
    Domain.spawn (fun () ->
        Sanitize.Domains.spawned token;
        while Atomic.get running do
          let stacks = Recorder.open_stacks () in
          Sanitize.Shared.write "profiler.samples";
          List.iter
            (fun (track, stack) ->
              let key = folded_key ~track ~stack in
              let cur = Option.value ~default:0 (Hashtbl.find_opt samples key) in
              Hashtbl.replace samples key (cur + 1))
            stacks;
          Unix.sleepf period
        done)
  in
  { samples; running; ticker; token }

let stop t =
  Atomic.set t.running false;
  Domain.join t.ticker;
  Sanitize.Domains.join t.token;
  (* The ticker has exited: no concurrent writers remain. *)
  Sanitize.Shared.read "profiler.samples";
  let folded = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.samples [] in
  List.sort compare folded

let to_lines folded =
  List.map (fun (key, count) -> Printf.sprintf "%s %d" key count) folded

let write path folded =
  let oc = open_out path in
  List.iter (fun line -> output_string oc (line ^ "\n")) (to_lines folded);
  close_out oc
