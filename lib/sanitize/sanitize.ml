(* Dynamic concurrency sanitizer: a process-wide event recorder behind one
   enable flag (the telemetry pattern — off means one Atomic branch per shim
   and no allocation), feeding four detectors that all share one internal
   mutex: a vector-clock happens-before race detector, an Eraser-style
   lockset checker with RaceTrack-style ownership recycling, a lock-order
   acquisition graph with cycle detection, and arena ownership checks.

   The recorder's own mutex is deliberately not an instrumented lock: shims
   are leaves, never nested, so the recorder cannot deadlock with the code
   it watches. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let mu = Mutex.create ()

(* ---- vector clocks ---- *)
(* Grow-on-demand int arrays indexed by dense thread id. A missing entry
   reads as 0, so freshly created threads are "before everything". *)

let vc_get v i = if i < Array.length v then v.(i) else 0

let vc_ensure v n =
  if Array.length v >= n then v
  else begin
    let w = Array.make (max n ((2 * Array.length v) + 4)) 0 in
    Array.blit v 0 w 0 (Array.length v);
    w
  end

let vc_join a b =
  let n = max (Array.length a) (Array.length b) in
  Array.init n (fun i -> max (vc_get a i) (vc_get b i))

(* ---- thread identity ---- *)

(* Dense ids, assigned in order of first shim call. Virtual ids (used by
   unit tests and seeded fixtures to drive interleavings from one domain)
   live in their own namespace so they never collide with real domains. *)
let tid_table : (bool * int, int) Hashtbl.t = Hashtbl.create 16
let next_tid = ref 0

let virtual_key : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Callers must hold [mu]. *)
let dense_tid key =
  match Hashtbl.find_opt tid_table key with
  | Some t -> t
  | None ->
    let t = !next_tid in
    incr next_tid;
    Hashtbl.add tid_table key t;
    t

let current_tid_locked () =
  match !(Domain.DLS.get virtual_key) with
  | Some k -> dense_tid (true, k)
  | None -> dense_tid (false, (Domain.self () :> int))

(* ---- recorder state (all under [mu]) ---- *)

type thread_state = {
  mutable clock : int array;
  mutable held : string list;  (* locks held, innermost first *)
}

type lock_state = { mutable l_clock : int array }

type site_state = {
  mutable s_reads : int array;  (* per-tid clock at that thread's last read *)
  mutable s_writes : int array;
  mutable s_lockset : string list option;  (* None until first access *)
  mutable s_tids : int list;  (* distinct accessors since last recycle *)
  mutable s_written : bool;
}

let threads : (int, thread_state) Hashtbl.t = Hashtbl.create 16
let locks : (string, lock_state) Hashtbl.t = Hashtbl.create 16
let sites : (string * int, site_state) Hashtbl.t = Hashtbl.create 64

(* Lock-order edges (held -> acquired), first witness kept: the acquiring
   thread's full held stack at the acquisition that created the edge. *)
let lock_edges : (string * string, string list) Hashtbl.t = Hashtbl.create 16

type finding = {
  rule : string;
  site : string;
  message : string;
  anchors : string list;
}

let findings_rev : finding list ref = ref []
let reported : (string * string, unit) Hashtbl.t = Hashtbl.create 16
let n_reports = ref 0
let n_accesses = ref 0

type mode = Happens_before | Lockset | Both

let mode_state = ref Both

let set_mode m =
  Mutex.lock mu;
  mode_state := m;
  Mutex.unlock mu

let mode () =
  Mutex.lock mu;
  let m = !mode_state in
  Mutex.unlock mu;
  m

(* Callers must hold [mu]. Dedup per (rule, site): one finding per location
   keeps reports readable and makes fixture expectations exact. *)
let report rule site message anchors =
  if not (Hashtbl.mem reported (rule, site)) then begin
    Hashtbl.add reported (rule, site) ();
    incr n_reports;
    findings_rev := { rule; site; message; anchors } :: !findings_rev
  end

let thread_of tid =
  match Hashtbl.find_opt threads tid with
  | Some t -> t
  | None ->
    (* A thread's own component starts at 1 so its first recorded epoch is
       already positive: epochs a release/fork has not yet published read as
       strictly above every other thread's view, never as "before all". *)
    let clock = Array.make (tid + 1) 0 in
    clock.(tid) <- 1;
    let t = { clock; held = [] } in
    Hashtbl.add threads tid t;
    t

let lock_of name =
  match Hashtbl.find_opt locks name with
  | Some l -> l
  | None ->
    let l = { l_clock = [||] } in
    Hashtbl.add locks name l;
    l

let site_of key =
  match Hashtbl.find_opt sites key with
  | Some s -> s
  | None ->
    let s =
      { s_reads = [||]; s_writes = [||]; s_lockset = None; s_tids = []; s_written = false }
    in
    Hashtbl.add sites key s;
    s

let held_outermost_first th = List.rev th.held

let anchor_of tid th =
  match held_outermost_first th with
  | [] -> Printf.sprintf "thread %d holding no locks" tid
  | held -> Printf.sprintf "thread %d holding [%s]" tid (String.concat "; " held)

module Tid = struct
  let current () =
    if not (Atomic.get enabled_flag) then -1
    else begin
      Mutex.lock mu;
      let t = current_tid_locked () in
      Mutex.unlock mu;
      t
    end

  let with_virtual k f =
    let slot = Domain.DLS.get virtual_key in
    let saved = !slot in
    slot := Some k;
    Fun.protect ~finally:(fun () -> slot := saved) f
end

module Lock = struct
  let acquire name =
    if Atomic.get enabled_flag then begin
      Mutex.lock mu;
      let tid = current_tid_locked () in
      let th = thread_of tid in
      if List.mem name th.held then
        report "LOCK02" name
          (Printf.sprintf "recursive acquisition of lock %s" name)
          [ anchor_of tid th ];
      (* Lock-order edges from every lock already held. *)
      let witness = held_outermost_first th @ [ name ] in
      List.iter
        (fun h ->
          if h <> name && not (Hashtbl.mem lock_edges (h, name)) then
            Hashtbl.add lock_edges (h, name) witness)
        th.held;
      let l = lock_of name in
      th.clock <- vc_join th.clock l.l_clock;
      th.held <- name :: th.held;
      Mutex.unlock mu
    end

  (* Drops the innermost occurrence of the lock and hands off: the lock's
     clock absorbs the thread's, which then ticks. With [strict], releasing
     a lock the thread does not hold is a LOCK02 finding instead. *)
  let release_checked ~strict name =
    if Atomic.get enabled_flag then begin
      Mutex.lock mu;
      let tid = current_tid_locked () in
      let th = thread_of tid in
      if strict && not (List.mem name th.held) then
        report "LOCK02" name
          (Printf.sprintf "release of lock %s which the thread does not hold" name)
          [ anchor_of tid th ]
      else begin
        let rec drop = function
          | [] -> []
          | h :: rest -> if h = name then rest else h :: drop rest
        in
        th.held <- drop th.held;
        let l = lock_of name in
        l.l_clock <- vc_join l.l_clock th.clock;
        let tick = vc_ensure th.clock (tid + 1) in
        tick.(tid) <- tick.(tid) + 1;
        th.clock <- tick
      end;
      Mutex.unlock mu
    end

  let release name = release_checked ~strict:true name

  (* An unheld lock here was acquired before [enable] or [reset]; the real
     unlock still orders the section before the next holder's acquire. *)
  let release_seen name = release_checked ~strict:false name
end

module Shared = struct
  let access ~is_write site index =
    if Atomic.get enabled_flag then begin
      Mutex.lock mu;
      incr n_accesses;
      let tid = current_tid_locked () in
      let th = thread_of tid in
      let st = site_of (site, index) in
      let label =
        if index < 0 then site else Printf.sprintf "%s[%d]" site index
      in
      let m = !mode_state in
      (* Happens-before: a prior access by u is ordered before this one iff
         its recorded epoch is visible in our clock. *)
      let unordered v =
        let bad = ref [] in
        Array.iteri
          (fun u c -> if u <> tid && c > 0 && c > vc_get th.clock u then bad := u :: !bad)
          v;
        !bad
      in
      let racy_writes = unordered st.s_writes in
      let racy_reads = if is_write then unordered st.s_reads else [] in
      let ordered = racy_writes = [] && racy_reads = [] in
      if (not ordered) && (m = Happens_before || m = Both) then
        report "RACE01" label
          (Printf.sprintf "%s of %s races a prior %s by thread%s %s with no happens-before edge"
             (if is_write then "write" else "read")
             label
             (if racy_writes <> [] then "write" else "read")
             (if List.length (racy_writes @ racy_reads) > 1 then "s" else "")
             (String.concat ", " (List.map string_of_int (racy_writes @ racy_reads))))
          [ anchor_of tid th ];
      (* Eraser lockset with RaceTrack-style recycling: an access ordered
         after everything previous by a new thread takes clean ownership
         (fork/join handoff is not a lock-discipline violation). *)
      if m = Lockset || m = Both then begin
        let held = List.sort_uniq compare th.held in
        if ordered && not (List.mem tid st.s_tids) then begin
          st.s_tids <- [ tid ];
          st.s_lockset <- Some held;
          st.s_written <- is_write
        end
        else begin
          (match st.s_lockset with
          | None -> st.s_lockset <- Some held
          | Some ls -> st.s_lockset <- Some (List.filter (fun l -> List.mem l held) ls));
          if not (List.mem tid st.s_tids) then st.s_tids <- tid :: st.s_tids;
          st.s_written <- st.s_written || is_write;
          match st.s_lockset with
          | Some [] when st.s_written && List.length st.s_tids >= 2 ->
            report "RACE02" label
              (Printf.sprintf
                 "no consistent lock protects %s: candidate lockset is empty after \
                  writes by threads %s"
                 label
                 (String.concat ", " (List.map string_of_int (List.rev st.s_tids))))
              [ anchor_of tid th ]
          | _ -> ()
        end
      end;
      (* Record the access epoch. *)
      let epoch = vc_get th.clock tid in
      if is_write then begin
        st.s_writes <- vc_ensure st.s_writes (tid + 1);
        st.s_writes.(tid) <- epoch
      end
      else begin
        st.s_reads <- vc_ensure st.s_reads (tid + 1);
        st.s_reads.(tid) <- epoch
      end;
      Mutex.unlock mu
    end

  let read site = access ~is_write:false site (-1)
  let write site = access ~is_write:true site (-1)
  let read_idx site index = access ~is_write:false site index
  let write_idx site index = access ~is_write:true site index
end

module Domains = struct
  type token = { d_snapshot : int array; d_live : bool; mutable d_child : int }

  let fork () =
    if not (Atomic.get enabled_flag) then { d_snapshot = [||]; d_live = false; d_child = -1 }
    else begin
      Mutex.lock mu;
      let tid = current_tid_locked () in
      let th = thread_of tid in
      let snapshot = Array.copy th.clock in
      let tick = vc_ensure th.clock (tid + 1) in
      tick.(tid) <- tick.(tid) + 1;
      th.clock <- tick;
      Mutex.unlock mu;
      { d_snapshot = snapshot; d_live = true; d_child = -1 }
    end

  let spawned token =
    if token.d_live && Atomic.get enabled_flag then begin
      Mutex.lock mu;
      let tid = current_tid_locked () in
      let th = thread_of tid in
      th.clock <- vc_join th.clock token.d_snapshot;
      token.d_child <- tid;
      Mutex.unlock mu
    end

  let join token =
    if token.d_live && token.d_child >= 0 && Atomic.get enabled_flag then begin
      Mutex.lock mu;
      let tid = current_tid_locked () in
      let th = thread_of tid in
      (match Hashtbl.find_opt threads token.d_child with
      | Some child -> th.clock <- vc_join th.clock child.clock
      | None -> ());
      Mutex.unlock mu
    end
end

module Arena = struct
  (* Ownership is bound to the raw identity (domain id or virtual id), not
     the dense tid: arenas live in DLS and outlive [reset], which renumbers
     dense tids — a stale dense owner would produce false OWN01s. Raw domain
     ids are never reused within a process, so the binding stays valid for
     the arena's whole life. *)
  type token = { a_name : string; a_key : (bool * int) option }

  let raw_key () =
    match !(Domain.DLS.get virtual_key) with
    | Some k -> (true, k)
    | None -> (false, (Domain.self () :> int))

  let describe (is_virtual, id) =
    Printf.sprintf "%s %d" (if is_virtual then "virtual thread" else "domain") id

  let create name =
    if not (Atomic.get enabled_flag) then { a_name = name; a_key = None }
    else { a_name = name; a_key = Some (raw_key ()) }

  let touch token =
    match token.a_key with
    | None -> ()
    | Some owner ->
      if Atomic.get enabled_flag then begin
        let k = raw_key () in
        if k <> owner then begin
          Mutex.lock mu;
          let tid = current_tid_locked () in
          let th = thread_of tid in
          report "OWN01" token.a_name
            (Printf.sprintf "arena %s owned by %s touched by %s" token.a_name
               (describe owner) (describe k))
            [ anchor_of tid th ];
          Mutex.unlock mu
        end
      end
end

(* ---- lock-order cycle detection ---- *)

(* Enumerate simple cycles in the acquisition graph by DFS with an explicit
   path stack; lock counts are tiny (a handful of named mutexes), so the
   exponential worst case is irrelevant. Cycles are canonicalized (rotated
   to their smallest node) so each is reported once. *)
let detect_cycles_locked () =
  let adj = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (a, b) _ ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt adj a) in
      Hashtbl.replace adj a (b :: cur))
    lock_edges;
  let nodes =
    List.sort_uniq compare
      (Hashtbl.fold (fun (a, b) _ acc -> a :: b :: acc) lock_edges [])
  in
  let canonical cycle =
    let smallest = List.fold_left min (List.hd cycle) cycle in
    let rec rotate acc = function
      | [] -> List.rev acc
      | x :: rest when x = smallest -> (x :: rest) @ List.rev acc
      | x :: rest -> rotate (x :: acc) rest
    in
    rotate [] cycle
  in
  let seen = Hashtbl.create 4 in
  let emit cycle =
    let c = canonical cycle in
    let key = String.concat " -> " c in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let edges_of =
        let rec pairs = function
          | a :: (b :: _ as rest) -> (a, b) :: pairs rest
          | [ last ] -> [ (last, List.hd c) ]
          | [] -> []
        in
        pairs c
      in
      let anchors =
        List.filter_map
          (fun (a, b) ->
            Option.map
              (fun w -> Printf.sprintf "%s -> %s acquired as [%s]" a b (String.concat "; " w))
              (Hashtbl.find_opt lock_edges (a, b)))
          edges_of
      in
      report "LOCK01" key
        (Printf.sprintf "lock-order cycle %s -> %s: opposite acquisition orders can deadlock"
           key (List.hd c))
        anchors
    end
  in
  let rec dfs path node =
    let out_edges = Option.value ~default:[] (Hashtbl.find_opt adj node) in
    List.iter
      (fun next ->
        if List.mem next path then begin
          (* Slice the cycle out of the path (path is innermost-first). *)
          let rec upto acc = function
            | [] -> acc
            | x :: rest -> if x = next then x :: acc else upto (x :: acc) rest
          in
          emit (upto [] (node :: path))
        end
        else if List.length path < 8 then dfs (node :: path) next)
      out_edges
  in
  List.iter (fun n -> dfs [] n) nodes

let findings () =
  Mutex.lock mu;
  detect_cycles_locked ();
  let fs = List.rev !findings_rev in
  Mutex.unlock mu;
  fs

type stats = {
  accesses : int;
  locks_tracked : int;
  sites_tracked : int;
  reports : int;
}

let stats () =
  Mutex.lock mu;
  let s =
    { accesses = !n_accesses;
      locks_tracked = Hashtbl.length locks;
      sites_tracked = Hashtbl.length sites;
      reports = !n_reports }
  in
  Mutex.unlock mu;
  s

let reset () =
  Mutex.lock mu;
  Hashtbl.reset tid_table;
  next_tid := 0;
  Hashtbl.reset threads;
  Hashtbl.reset locks;
  Hashtbl.reset sites;
  Hashtbl.reset lock_edges;
  Hashtbl.reset reported;
  findings_rev := [];
  n_reports := 0;
  n_accesses := 0;
  mode_state := Both;
  Mutex.unlock mu
