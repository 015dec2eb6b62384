(* Worker domains sleep on [work_cv] between jobs. A job is published as
   [current = Some (generation, job)]; each worker remembers the last
   generation it examined so a job is joined at most once per worker, and
   [seats] caps how many workers may join (the [?domains] argument). Items
   are claimed from [job.next]; participants (caller included) decrement
   [job.active] when the counter is exhausted, and the caller waits on
   [done_cv] for the count to reach zero before reading the results. *)

module Sanitize = Waltz_sanitizer.Sanitize

type job = {
  run_item : int -> unit;
  length : int;
  next : int Atomic.t;
  mutable seats : int;  (* extra workers still allowed to join; under [m] *)
  mutable active : int;  (* participants not yet drained; under [m] *)
  failure : exn option Atomic.t;
  published_us : float;  (* publish timestamp when telemetry is on; else 0 *)
}

type t = {
  n_workers : int;
  m : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable current : (int * job) option;
  mutable gen : int;
  mutable stopping : bool;
  mutable handles : (unit Domain.t * Sanitize.Domains.token) list;
}

(* Sanitizer shims for [m]: the acquire shim runs after [Mutex.lock]
   returns and the release shim before [Mutex.unlock], so the recorder sees
   handoffs in true acquisition order. [Condition.wait] atomically releases
   and reacquires, hence the bracket. Idle workers cycle through [m]
   between jobs, so a section can begin before the sanitizer is enabled
   and end after: its release is [release_seen]. *)
let lock_m pool =
  Mutex.lock pool.m;
  Sanitize.Lock.acquire "pool.m"

let unlock_m pool =
  Sanitize.Lock.release_seen "pool.m";
  Mutex.unlock pool.m

let wait_on pool cv =
  Sanitize.Lock.release_seen "pool.m";
  Condition.wait cv pool.m;
  Sanitize.Lock.acquire "pool.m"

(* Memoized: the environment and the hardware's recommendation are fixed
   for the process lifetime, and the getenv + topology probe (~0.3 us)
   otherwise taxes every short simulate call. A racing first call computes
   the same value twice, so the bare Atomic is safe. *)
let default_domains_memo = Atomic.make 0

let default_domains () =
  match Atomic.get default_domains_memo with
  | 0 ->
    let recommended = max 1 (Domain.recommended_domain_count ()) in
    let d =
      match Sys.getenv_opt "WALTZ_DOMAINS" with
      | Some s -> begin
        match int_of_string_opt (String.trim s) with
        (* Oversubscribing physical cores can only add scheduling overhead,
           and determinism makes the setting observationally equivalent
           anyway, so the env knob is capped at the hardware's
           recommendation. *)
        | Some d when d >= 1 -> min (min d 64) recommended
        | _ -> recommended
      end
      | None -> recommended
    in
    Atomic.set default_domains_memo d;
    d
  | d -> d

(* Claim items until the counter runs dry, then sign off. On an exception the
   job is aborted (the counter is pushed past the end) and the first failure
   is kept for the caller to re-raise. Telemetry: items claimed by a worker
   domain (rather than the submitting caller) count as steals; claims are
   tallied locally and flushed once per participation to keep the claim loop
   free of locking. *)
let participate ?(stolen = false) pool job =
  let claimed = ref 0 in
  let rec claim () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.length then begin
      incr claimed;
      (try job.run_item i
       with e ->
         ignore (Atomic.compare_and_set job.failure None (Some e));
         Atomic.set job.next job.length);
      claim ()
    end
  in
  claim ();
  if Waltz_telemetry.Telemetry.metrics_enabled () && !claimed > 0 then begin
    Waltz_telemetry.Telemetry.Metrics.incr ~by:!claimed "pool.items";
    if stolen then Waltz_telemetry.Telemetry.Metrics.incr ~by:!claimed "pool.items.stolen"
  end;
  lock_m pool;
  Sanitize.Shared.write "pool.job";
  job.active <- job.active - 1;
  if job.active = 0 then Condition.broadcast pool.done_cv;
  unlock_m pool

let worker pool =
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    lock_m pool;
    let job = ref None in
    while !job = None && not pool.stopping do
      Sanitize.Shared.read "pool.current";
      (match pool.current with
      | Some (g, j) when g <> !last_gen ->
        last_gen := g;
        if j.seats > 0 then begin
          Sanitize.Shared.write "pool.job";
          j.seats <- j.seats - 1;
          j.active <- j.active + 1;
          Waltz_telemetry.Telemetry.Metrics.incr "pool.seats.joined";
          (* Seat-wait latency: publish-to-join, i.e. how long work sat
             queued before this worker picked it up (ROADMAP item 1 wants
             admission latency visible). *)
          if Waltz_telemetry.Telemetry.metrics_enabled () then
            Waltz_telemetry.Telemetry.Metrics.observe "pool.seat_wait_us"
              (Waltz_telemetry.Telemetry.now_us () -. j.published_us);
          job := Some j
        end
      | _ -> ());
      if !job = None && not pool.stopping then wait_on pool pool.work_cv
    done;
    unlock_m pool;
    match !job with
    | None -> running := false
    | Some j -> participate ~stolen:true pool j
  done

let create ?workers () =
  let n_workers =
    match workers with Some w -> max 0 w | None -> default_domains () - 1
  in
  let pool =
    { n_workers;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      current = None;
      gen = 0;
      stopping = false;
      handles = [] }
  in
  pool.handles <-
    List.init n_workers (fun _ ->
        let token = Sanitize.Domains.fork () in
        ( Domain.spawn (fun () ->
              Sanitize.Domains.spawned token;
              worker pool),
          token ));
  pool

let size pool = pool.n_workers + 1

let shutdown pool =
  lock_m pool;
  pool.stopping <- true;
  Condition.broadcast pool.work_cv;
  unlock_m pool;
  List.iter
    (fun (handle, token) ->
      Domain.join handle;
      Sanitize.Domains.join token)
    pool.handles;
  pool.handles <- []

let map_array ?domains pool ~n ~f =
  if n < 0 then invalid_arg "Pool.map_array: negative length";
  let budget =
    match domains with Some d -> max 1 d | None -> pool.n_workers + 1
  in
  let results = Array.make (max n 1) None in
  if budget = 1 || pool.n_workers = 0 || n <= 1 then
    for i = 0 to n - 1 do
      results.(i) <- Some (f i)
    done
  else begin
    let seats = min (budget - 1) pool.n_workers in
    let telemetry_on = Waltz_telemetry.Telemetry.metrics_enabled () in
    if telemetry_on then begin
      Waltz_telemetry.Telemetry.Metrics.incr "pool.jobs";
      Waltz_telemetry.Telemetry.Metrics.incr ~by:seats "pool.seats.offered";
      (* Queue depth at publish: items admitted in this job. A gauge (last
         write wins), printed by --stats and bounded by a resource
         certificate's [queue_depth]. *)
      Waltz_telemetry.Telemetry.Metrics.set_gauge "pool.queue_depth" (float_of_int n)
    end;
    let job =
      { run_item =
          (fun i ->
            Sanitize.Shared.write_idx "pool.results" i;
            results.(i) <- Some (f i));
        length = n;
        next = Atomic.make 0;
        seats;
        active = 1;
        failure = Atomic.make None;
        published_us = (if telemetry_on then Waltz_telemetry.Telemetry.now_us () else 0.) }
    in
    lock_m pool;
    if pool.current <> None then begin
      unlock_m pool;
      invalid_arg "Pool.map_array: pool is already running a job"
    end;
    pool.gen <- pool.gen + 1;
    Sanitize.Shared.write "pool.current";
    pool.current <- Some (pool.gen, job);
    Condition.broadcast pool.work_cv;
    unlock_m pool;
    participate pool job;
    lock_m pool;
    Sanitize.Shared.write "pool.job";
    job.seats <- 0;
    while job.active > 0 do
      wait_on pool pool.done_cv
    done;
    Sanitize.Shared.write "pool.current";
    pool.current <- None;
    unlock_m pool;
    match Atomic.get job.failure with Some e -> raise e | None -> ()
  end;
  Array.init n (fun i ->
      Sanitize.Shared.read_idx "pool.results" i;
      match results.(i) with
      | Some v -> v
      | None -> invalid_arg "Pool.map_array: item never computed")

let map_reduce ?domains pool ~n ~map ~fold ~init =
  let results = map_array ?domains pool ~n ~f:map in
  Array.fold_left fold init results

let with_pool ?domains f =
  let workers = match domains with Some d -> max 0 (d - 1) | None -> default_domains () - 1 in
  let pool = create ~workers () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let run ?domains ~n f =
  match domains with
  | Some d when d <= 1 -> Array.init n f
  | _ -> with_pool ?domains (fun pool -> map_array pool ~n ~f)

(* The process-wide pool. Grown (shutdown + recreate, never shrunk) to the
   largest request seen; worker domains idle on the condition variable
   between jobs, so keeping it alive for the process lifetime is free and
   saves the domain spawn/join on every trajectory batch.

   Publication is an [Atomic.t] so the common already-big-enough path is a
   single sequentially-consistent load with no lock. Growth double-checks
   under [shared_mutex]: two callers racing on a cold or too-small pool
   used to be able to interleave their check-then-create (the latent
   double-initialization race) — now one grower wins, the other re-reads
   the published pool. The replacement is published before the old pool is
   retired so a concurrent fast-path load never observes a stopped pool. *)
let shared_state : (t * int) option Atomic.t = Atomic.make None
let shared_mutex = Mutex.create ()

let shared ?domains () =
  let workers =
    match domains with Some d -> max 0 (d - 1) | None -> default_domains () - 1
  in
  match Atomic.get shared_state with
  | Some (pool, w) when w >= workers -> pool
  | _ ->
    Mutex.lock shared_mutex;
    Sanitize.Lock.acquire "pool.shared_mutex";
    let pool =
      match Atomic.get shared_state with
      | Some (pool, w) when w >= workers -> pool
      | prev ->
        let pool = create ~workers () in
        Atomic.set shared_state (Some (pool, workers));
        (match prev with Some (old, _) -> shutdown old | None -> ());
        pool
    in
    Sanitize.Lock.release "pool.shared_mutex";
    Mutex.unlock shared_mutex;
    pool
