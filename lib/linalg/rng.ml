(* [pair] is a flat (unboxed) float array: a polar draw lands both of its
   normals there — slot 0 handed out at once, slot 1 kept as the spare
   while [has_spare] is set — so a draw builds no tuple or option and
   boxes no normal. *)
type t = { state : Random.State.t; pair : float array; mutable has_spare : bool }

(* [Random.State.make] hashes the seed array through the stdlib's full
   initialization (~0.6 us) — the trajectory engine pays it once per
   trajectory under split-stream seeding. The initial state for a given
   seed never changes, so memoize masters per domain and hand out copies:
   same seed, same stream, a fraction of the cost. The masters are never
   advanced — [make] only ever copies them. *)
let seed_masters : (int, Random.State.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let of_state state = { state; pair = Array.make 2 0.; has_spare = false }

let make ~seed =
  let masters = Domain.DLS.get seed_masters in
  let master =
    match Hashtbl.find_opt masters seed with
    | Some s -> s
    | None ->
      if Hashtbl.length masters > 4096 then Hashtbl.reset masters;
      let s = Random.State.make [| seed; 0x9e3779b9 |] in
      Hashtbl.add masters seed s;
      s
  in
  of_state (Random.State.copy master)

let split t =
  of_state (Random.State.make [| Random.State.bits t.state; Random.State.bits t.state |])

let int t bound = Random.State.int t.state bound
let float t bound = Random.State.float t.state bound
let bool t = Random.State.bool t.state

(* Marsaglia's polar form of Box–Muller: rejection-sample (u, v) in the
   unit disc, then u·f and v·f are two independent normals. The float
   refs are local, so the compiler keeps them unboxed. *)
let draw_pair t =
  let u = ref 0. and v = ref 0. and s = ref 0. in
  let accepted = ref false in
  while not !accepted do
    u := Random.State.float t.state 2. -. 1.;
    v := Random.State.float t.state 2. -. 1.;
    s := (!u *. !u) +. (!v *. !v);
    accepted := !s < 1. && !s <> 0.
  done;
  let f = sqrt (-2. *. log !s /. !s) in
  t.pair.(0) <- !u *. f;
  t.pair.(1) <- !v *. f

(* Slot of [pair] holding the next normal: the spare if one is kept,
   else the first of a fresh pair. *)
let next_slot t =
  if t.has_spare then begin
    t.has_spare <- false;
    1
  end
  else begin
    draw_pair t;
    t.has_spare <- true;
    0
  end

let gaussian t = t.pair.(next_slot t)
let gaussian_into t dst i = dst.(i) <- t.pair.(next_slot t)

(* The left-to-right sum, then the first index whose running sum passes
   the draw (the last index if none does). The float refs are local, so
   the compiler keeps them unboxed. *)
let weighted_choice t w =
  let n = Array.length w in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. w.(i)
  done;
  if !total <= 0. then invalid_arg "Rng.weighted_choice: non-positive total weight";
  let x = Random.State.float t.state !total in
  let acc = ref 0. and i = ref 0 in
  while !i < n - 1 && not (x < !acc +. w.(!i)) do
    acc := !acc +. w.(!i);
    incr i
  done;
  !i

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t.state (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
