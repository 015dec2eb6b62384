(* The SoA trajectory engine: every batched kernel class must agree with
   the generic State.apply reference, every lane of a wide block must be
   bit-identical to a one-lane block, and the executor's statistics must be
   *bit-identical* at every batch width × domain count — including windows
   where part of the batch diverges into the error branch. The lockstep
   contract is per-lane: lane k of any block performs trajectory k's
   floating-point operations in the same order as a one-lane block,
   drawing from the same split RNG stream. *)
open Waltz_linalg
open Waltz_circuit
open Waltz_noise
open Waltz_sim
open Waltz_core
open Test_util

let rand_cplx r = Cplx.c (Rng.gaussian r) (Rng.gaussian r)

let random_dense r g = Mat.init g g (fun _ _ -> rand_cplx r)

let random_diag r g = Mat.diag (Array.init g (fun _ -> Cplx.exp_i (Rng.float r 6.28)))

let random_monomial r g =
  let perm = Array.init g Fun.id in
  Rng.shuffle_in_place r perm;
  let m = Mat.zeros g g in
  for j = 0 to g - 1 do
    Mat.set m perm.(j) j (Cplx.exp_i (Rng.float r 6.28))
  done;
  m

let random_controlled r g =
  if g <= 2 then random_dense r g
  else begin
  let k = 2 + Rng.int r (g - 2) in
  let idx = Array.init g Fun.id in
  Rng.shuffle_in_place r idx;
  let active = Array.sub idx 0 k in
  let m = Mat.identity g in
  Array.iter (fun i -> Array.iter (fun j -> Mat.set m i j (rand_cplx r)) active) active;
  m
  end

let gate_dim dims targets = List.fold_left (fun acc w -> acc * dims.(w)) 1 targets

(* Fill [live] lanes of a fresh block with independent random states and
   return the matching single states. *)
let random_block r ~dims ~cap ~live =
  let blk = State_block.create ~dims ~cap in
  State_block.set_live blk live;
  let lanes =
    Array.init live (fun k ->
        let s = State.random r ~dims in
        State_block.write_lane blk k (State.amplitudes s);
        s)
  in
  (blk, lanes)

(* One batched application vs per-lane references: bit-identical to a
   one-lane block application, and within 1e-12 of the generic path. The
   same lanes in a block laid over planes longer than n·cap (a workspace
   kept from a larger register, stale values throughout) must come out
   bit-identical to the exact-size block, with the tail untouched. *)
let check_block_agrees r ~dims ~targets m =
  let kernel = Kernel.compile ~dims ~targets m in
  let cls = Kernel.class_name kernel in
  (* cap > live exercises the partial-trailing-block layout. *)
  let cap = 5 and live = 3 in
  let blk, lanes = random_block r ~dims ~cap ~live in
  let len = State_block.dim_total blk * cap and extra = 37 in
  let lre = Array.init (len + extra) (fun i -> float_of_int (i + 1))
  and lim = Array.make (len + extra) nan in
  let long = State_block.of_planes ~dims ~cap lre lim in
  State_block.set_live long live;
  Array.iteri (fun k s -> State_block.write_lane long k (State.amplitudes s)) lanes;
  State_block.apply_kernel blk kernel;
  State_block.apply_kernel long kernel;
  for i = len to len + extra - 1 do
    if lre.(i) <> float_of_int (i + 1) || not (Float.is_nan lim.(i)) then
      Alcotest.failf "batched %s wrote past n*cap at %d" cls i
  done;
  Array.iteri
    (fun k s ->
      let one = Vec.copy (State.amplitudes s) in
      Kernel.apply_block kernel one.Vec.re one.Vec.im ~cap:1 ~live:1;
      let generic = State.of_vec ~dims (State.amplitudes s) in
      State.apply generic ~targets m;
      let got = State_block.read_lane blk k in
      let got_long = State_block.read_lane long k in
      let gen = State.amplitudes generic in
      for idx = 0 to Vec.dim got - 1 do
        if
          not
            (Float.equal got.Vec.re.(idx) one.re.(idx)
            && Float.equal got.Vec.im.(idx) one.im.(idx))
        then
          Alcotest.failf "batched %s lane %d not bit-identical to a one-lane block at %d"
            cls k idx;
        if
          not
            (Float.equal got_long.Vec.re.(idx) got.Vec.re.(idx)
            && Float.equal got_long.Vec.im.(idx) got.Vec.im.(idx))
        then
          Alcotest.failf "batched %s lane %d over longer planes differs at %d" cls k idx;
        if
          Float.abs (got.Vec.re.(idx) -. gen.Vec.re.(idx)) > 1e-12
          || Float.abs (got.Vec.im.(idx) -. gen.Vec.im.(idx)) > 1e-12
        then Alcotest.failf "batched %s lane %d off generic path at %d" cls k idx
      done)
    lanes

let shapes =
  [ ([| 2; 2; 2 |], [ 1 ]);
    ([| 2; 2; 2 |], [ 2; 0 ]);
    ([| 2; 2; 2; 2 |], [ 1; 3; 0 ]);
    ([| 4; 4 |], [ 0 ]);
    ([| 4; 4 |], [ 1; 0 ]);
    ([| 4; 4; 4 |], [ 0; 2 ]);
    ([| 2; 4; 2 |], [ 2; 1; 0 ]) ]

let test_kernel_classes () =
  let r = rng 811 in
  List.iter
    (fun (dims, targets) ->
      let g = gate_dim dims targets in
      for _ = 1 to 3 do
        check_block_agrees r ~dims ~targets (random_diag r g);
        check_block_agrees r ~dims ~targets (random_monomial r g);
        check_block_agrees r ~dims ~targets (random_controlled r g);
        check_block_agrees r ~dims ~targets (random_dense r g)
      done)
    shapes

(* Every class name must actually be covered by the generators above — a
   classifier change that silently reroutes a class would otherwise leave a
   batched path untested. *)
let test_class_coverage () =
  let r = rng 812 in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (dims, targets) ->
      let g = gate_dim dims targets in
      List.iter
        (fun m -> Hashtbl.replace seen (Kernel.class_name (Kernel.compile ~dims ~targets m)) ())
        [ random_diag r g; random_monomial r g; random_controlled r g; random_dense r g ])
    shapes;
  List.iter
    (fun cls ->
      check_bool (Printf.sprintf "class %s covered" cls) true (Hashtbl.mem seen cls))
    Kernel.classes

(* State_block.fill_random_supported: lane k must see exactly the gaussian
   stream State.random_supported sees with the same seed. *)
let test_fill_bit_identity () =
  let dims = [| 4; 4; 2 |] in
  let levels = [| [ 0; 1; 2 ]; [ 0; 2 ]; [ 0; 1 ] |] in
  let allowed = Array.mapi (fun w d -> Array.init d (fun l -> List.mem l levels.(w))) dims in
  let live = 4 in
  let blk = State_block.create ~dims ~cap:live in
  let rngs = Array.init live (fun k -> Rng.make ~seed:(100 + (13 * k))) in
  State_block.fill_random_supported blk rngs ~allowed;
  for k = 0 to live - 1 do
    let s = State.random_supported (Rng.make ~seed:(100 + (13 * k))) ~dims ~allowed:levels in
    let got = State_block.read_lane blk k and want = State.amplitudes s in
    for idx = 0 to Vec.dim want - 1 do
      if
        not
          (Float.equal got.Vec.re.(idx) want.Vec.re.(idx)
          && Float.equal got.Vec.im.(idx) want.Vec.im.(idx))
      then Alcotest.failf "fill_random lane %d differs at %d" k idx
    done
  done

(* The Haar fill writes each draw straight into the planes: on a full
   4^6-amplitude support × 8 lanes it allocates at most 6 minor words per
   amplitude-lane, which leaves room for [Random.State.float]'s boxed
   results (about 5 words per amplitude-lane) and nothing per normal.
   Deterministic allocation counts, not timing. *)
let test_fill_allocation () =
  let dims = Array.make 6 4 and lanes = 8 in
  let allowed = Array.map (fun d -> Array.make d true) dims in
  let blk = State_block.create ~dims ~cap:lanes in
  let rngs = Array.init lanes (fun k -> Rng.make ~seed:(500 + k)) in
  let before = Gc.minor_words () in
  State_block.fill_random_supported blk rngs ~allowed;
  let per_amplitude_lane =
    (Gc.minor_words () -. before) /. float_of_int (State_block.dim_total blk * lanes)
  in
  check_bool
    (Printf.sprintf "fill allocated %.2f minor words per amplitude-lane (<= 6)"
       per_amplitude_lane)
    true (per_amplitude_lane <= 6.)

(* One damping step on a 3-ququart block at batch 8 allocates 16 minor
   words: one boxed [Random.State.float] result (2 words) per lane's
   weighted choice. The weights, the choice's sums and the sweeps allocate
   nothing. Deterministic allocation counts, not timing. *)
let test_damp_allocation () =
  let dims = Array.make 3 4 and lanes = 8 in
  let allowed = Array.map (fun d -> Array.make d true) dims in
  let blk = State_block.create ~dims ~cap:lanes in
  let rngs = Array.init lanes (fun k -> Rng.make ~seed:(700 + k)) in
  State_block.fill_random_supported blk rngs ~allowed;
  let lambdas = Noise.damping_lambdas Noise.default ~d:4 ~dt_ns:500. in
  let scales = State_block.damp_scales lambdas in
  (* The first call sizes the domain's scratch slots. *)
  ignore (State_block.damp_with blk rngs ~wire:1 ~lambdas ~scales);
  let before = Gc.minor_words () in
  ignore (State_block.damp_with blk rngs ~wire:1 ~lambdas ~scales);
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "damp_with allocated %.0f minor words (<= 16)" words) true
    (words <= 16.)

(* Oracle for [Rng]: a plain Box–Muller sampler that keeps its spare in a
   [float option], and the weighted choice, over the same seeded
   [Random.State] that [Rng.make] builds. *)
type oracle = { st : Random.State.t; mutable cached_gauss : float option }

let oracle_gaussian t =
  match t.cached_gauss with
  | Some g ->
    t.cached_gauss <- None;
    g
  | None ->
    let rec draw () =
      let u = Random.State.float t.st 2. -. 1. and v = Random.State.float t.st 2. -. 1. in
      let s = (u *. u) +. (v *. v) in
      if s >= 1. || s = 0. then draw () else (u, v, s)
    in
    let u, v, s = draw () in
    let f = sqrt (-2. *. log s /. s) in
    t.cached_gauss <- Some (v *. f);
    u *. f

let oracle_weighted_choice t w =
  let total = Array.fold_left ( +. ) 0. w in
  let x = Random.State.float t.st total in
  let rec go i acc =
    if i = Array.length w - 1 then i
    else
      let acc = acc +. w.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.

(* [Rng.gaussian] and [Rng.gaussian_into] reproduce the oracle bit for bit
   over 10^4 calls per seed, interleaved at random with [float], [int] and
   [weighted_choice], so a spare kept across other calls is covered. *)
let test_rng_matches_boxed_oracle () =
  let bits = Int64.bits_of_float in
  let out = Array.make 3 0. in
  List.iter
    (fun seed ->
      let rng = Rng.make ~seed in
      let oracle = { st = Random.State.make [| seed; 0x9e3779b9 |]; cached_gauss = None } in
      let picker = Random.State.make [| seed; 7 |] in
      for call = 1 to 10_000 do
        let fail what = Alcotest.failf "seed %d call %d: %s differs" seed call what in
        match Random.State.int picker 5 with
        | 0 -> if bits (Rng.gaussian rng) <> bits (oracle_gaussian oracle) then fail "gaussian"
        | 1 ->
          let i = Random.State.int picker 3 in
          Rng.gaussian_into rng out i;
          if bits out.(i) <> bits (oracle_gaussian oracle) then fail "gaussian_into"
        | 2 ->
          if bits (Rng.float rng 3.5) <> bits (Random.State.float oracle.st 3.5) then
            fail "float"
        | 3 -> if Rng.int rng 1000 <> Random.State.int oracle.st 1000 then fail "int"
        | _ ->
          let w = [| 0.25; 0.; 1.5; 0.125 |] in
          if Rng.weighted_choice rng w <> oracle_weighted_choice oracle w then
            fail "weighted_choice"
      done)
    [ 0; 1; 99; 2023; 7919 * 13 ]

(* Random register shapes (1-9 wires, radix 2 and 4 mixed) with random
   level tables: level 0 always allowed, and about a third of the wires
   fully allowed, as a two-qubit ququart is. *)
let random_support ?(max_wires = 9) r =
  let nw = 1 + Rng.int r max_wires in
  let dims = Array.init nw (fun _ -> if Rng.int r 2 = 0 then 2 else 4) in
  let allowed =
    Array.map
      (fun d ->
        let full = Rng.int r 3 = 0 in
        Array.init d (fun l -> l = 0 || full || Rng.int r 2 = 0))
      dims
  in
  (dims, allowed)

(* Reference: the ascending per-index digit filter. *)
let reference_ok ~dims ~allowed =
  let nw = Array.length dims in
  let strides = Array.make nw 1 in
  for w = nw - 2 downto 0 do
    strides.(w) <- strides.(w + 1) * dims.(w + 1)
  done;
  Array.init (Array.fold_left ( * ) 1 dims) (fun idx ->
      let ok = ref true in
      for w = 0 to nw - 1 do
        if not allowed.(w).(idx / strides.(w) mod dims.(w)) then ok := false
      done;
      !ok)

let test_iter_supported =
  qcheck ~count:60 "iter_supported equals the ascending digit filter"
    QCheck.(int_range 0 99_999)
    (fun seed ->
      let dims, allowed = random_support (rng seed) in
      let ok = reference_ok ~dims ~allowed in
      let want = List.filter (fun idx -> ok.(idx)) (List.init (Array.length ok) Fun.id) in
      let got = ref [] in
      State.iter_supported ~dims ~allowed (fun idx -> got := idx :: !got);
      List.rev !got = want)

(* Per-lane leakage over the enumerator must be bit-identical to a
   per-index membership-table sweep, at every width. Registers
   stay at <= 6 wires so the blocks stay small. *)
let test_leakage_reference () =
  let r = rng 4242 in
  for _ = 1 to 20 do
    let dims, allowed = random_support ~max_wires:6 r in
    let ok = reference_ok ~dims ~allowed in
    List.iter
      (fun cap ->
        let live = max 1 (cap - Rng.int r 2) in
        let blk, lanes = random_block r ~dims ~cap ~live in
        let got = Array.make cap nan in
        State_block.leakage_into got blk ~allowed;
        Array.iteri
          (fun k s ->
            let v = State.amplitudes s in
            let inside = ref 0. in
            Array.iteri
              (fun idx member ->
                if member then
                  inside :=
                    !inside +. (v.Vec.re.(idx) *. v.Vec.re.(idx))
                    +. (v.Vec.im.(idx) *. v.Vec.im.(idx)))
              ok;
            if not (Float.equal got.(k) (1. -. !inside)) then
              Alcotest.failf "leakage lane %d cap %d: %.17g <> %.17g" k cap got.(k)
                (1. -. !inside))
          lanes)
      [ 1; 5; 8 ]
  done

(* apply_lane (the divergent error-branch path) must mirror State.apply
   bit-exactly on diagonal, single-wire-dense and multi-wire matrices,
   while leaving the other lanes untouched — on a middle lane, on the last
   lane of a wide block and inside a partial block ([live < cap]). *)
let test_apply_lane () =
  let dims = [| 4; 2; 4 |] in
  let r = rng 644 in
  let gates =
    [ ([ 0 ], random_diag r 4);
      ([ 1 ], random_dense r 2);
      ([ 0; 2 ], random_dense r 16);
      ([ 2; 1 ], random_diag r 8) ]
  in
  List.iter
    (fun (cap, live, k) ->
      List.iter
        (fun (targets, m) ->
          let blk, lanes = random_block r ~dims ~cap ~live in
          State_block.apply_lane blk k ~targets m;
          Array.iteri
            (fun k' s ->
              if k' = k then State.apply s ~targets m;
              let got = State_block.read_lane blk k' and want = State.amplitudes s in
              for idx = 0 to Vec.dim want - 1 do
                if
                  not
                    (Float.equal got.Vec.re.(idx) want.Vec.re.(idx)
                    && Float.equal got.Vec.im.(idx) want.Vec.im.(idx))
                then Alcotest.failf "apply_lane cap %d lane %d differs at %d" cap k' idx
              done)
            lanes;
          if live < cap then
            Alcotest.check_raises "lane past live" (Invalid_argument "State_block.apply_lane")
              (fun () -> State_block.apply_lane blk live ~targets m))
        gates)
    [ (3, 3, 1); (8, 8, 7); (8, 5, 4) ]

(* The acceptance bar: simulation statistics bit-identical across the full
   batch × domains grid, against the one-lane-block (batch=1) sequential
   reference. *)
let grid_circuits =
  lazy
    [ ("toffoli", Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ]);
      ("cuccaro5", Waltz_benchmarks.Bench_circuits.by_total_qubits Cuccaro 5) ]

(* The four reported statistics, bit for bit. *)
let check_same_stats what (reference : Executor.detailed) (got : Executor.detailed) =
  let eq label a b =
    if not (Float.equal a b) then Alcotest.failf "%s %s: %.17g <> %.17g" what label a b
  in
  eq "mean_fidelity" reference.Executor.summary.Executor.mean_fidelity
    got.Executor.summary.Executor.mean_fidelity;
  eq "sem" reference.Executor.summary.Executor.sem got.Executor.summary.Executor.sem;
  eq "mean_leakage" reference.Executor.mean_leakage got.Executor.mean_leakage;
  eq "mean_error_draws" reference.Executor.mean_error_draws got.Executor.mean_error_draws

let check_grid ~model ~trajectories () =
  let config = { Executor.model; trajectories; base_seed = 17 } in
  List.iter
    (fun (cname, circuit) ->
      List.iter
        (fun (strategy : Strategy.t) ->
          let compiled = Compile.compile strategy circuit in
          let reference = Executor.simulate_detailed ~config ~domains:1 ~batch:1 compiled in
          List.iter
            (fun batch ->
              List.iter
                (fun domains ->
                  check_same_stats
                    (Printf.sprintf "%s/%s batch=%d domains=%d" cname
                       strategy.Strategy.name batch domains)
                    reference
                    (Executor.simulate_detailed ~config ~domains ~batch compiled))
                [ 1; 2 ])
            [ 1; 2; 7; 32 ])
        [ Strategy.mixed_radix_ccz; Strategy.full_ququart ])
    (Lazy.force grid_circuits)

let test_grid_default_model () = check_grid ~model:Noise.default ~trajectories:9 ()

(* A hot noise model — gate errors scaled 30× and T1 cut 300× — makes
   roughly half of each batch take a jump or error branch per window, so
   the masked divergent sweeps and per-lane injections carry the
   statistics. The grid must stay bit-identical, and errors must actually
   fire. *)
let test_grid_divergent_model () =
  let model =
    { Noise.default with
      Noise.ww_error_scale = 30.;
      Noise.t1_base_ns = Noise.default.Noise.t1_base_ns /. 300. }
  in
  check_grid ~model ~trajectories:9 ();
  let compiled =
    Compile.compile Strategy.full_ququart
      (Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ])
  in
  let d =
    Executor.simulate_detailed
      ~config:{ Executor.model; trajectories = 16; base_seed = 17 }
      ~domains:1 ~batch:8 compiled
  in
  check_bool "error branch exercised" true (d.Executor.mean_error_draws > 0.)

(* The plane guard, restated for planes that may be longer than n·cap: a
   kernel compiled for a register of another amplitude count is refused
   even when the planes would hold it, and planes shorter than n·cap are
   still refused by the kernel itself. *)
let test_plane_guards () =
  let r = rng 813 in
  let cap = 3 in
  let planes () = Array.make (16 * cap) 0. in
  List.iter
    (fun (kdims, bdims) ->
      let g = kdims.(0) in
      let kernel = Kernel.compile ~dims:kdims ~targets:[ 0 ] (random_dense r g) in
      let blk = State_block.of_planes ~dims:bdims ~cap (planes ()) (planes ()) in
      Alcotest.check_raises "kernel of another amplitude count"
        (Invalid_argument
           "State_block.apply_kernel: kernel compiled for another amplitude count")
        (fun () -> State_block.apply_kernel blk kernel))
    [ ([| 4; 4 |], [| 2; 2 |]); ([| 2; 2 |], [| 4; 4 |]) ];
  let kernel = Kernel.compile ~dims:[| 4; 4 |] ~targets:[ 1 ] (random_dense r 4) in
  let short = Array.make ((16 * cap) - 1) 0. in
  Alcotest.check_raises "planes shorter than n*cap"
    (Invalid_argument "Kernel.apply_block: planes shorter than n * cap") (fun () ->
      Kernel.apply_block kernel short short ~cap ~live:cap);
  Alcotest.check_raises "no block over planes shorter than n*cap"
    (Invalid_argument "State_block.of_planes: planes shorter than n * cap") (fun () ->
      ignore (State_block.of_planes ~dims:[| 4; 4 |] ~cap short short))

(* Planes kept from a larger register never leak into a smaller one: after
   an 8-ququart simulate on this domain, a 3-ququart Toffoli at batch 1, 5
   and 8 must give the bits of the same runs on a freshly spawned domain,
   whose workspace starts empty. *)
let test_stale_planes_never_leak () =
  let big =
    Compile.compile Strategy.full_ququart
      (Circuit.of_gates ~n:16 (List.init 15 (fun q -> Gate.make Gate.Cx [ q; q + 1 ])))
  in
  check_int "8 devices" 8 big.Physical.device_count;
  ignore
    (Executor.simulate
       ~config:{ Executor.default_config with Executor.trajectories = 2 }
       ~domains:1 ~batch:8 big);
  let toffoli =
    Compile.compile Strategy.mixed_radix_ccz
      (Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ])
  in
  let config = { Executor.model = Noise.default; trajectories = 9; base_seed = 17 } in
  let batches = [ 1; 5; 8 ] in
  let runs () =
    List.map (fun batch -> Executor.simulate_detailed ~config ~domains:1 ~batch toffoli) batches
  in
  let fresh = on_fresh_domain runs in
  List.iter2
    (fun batch (reference, got) ->
      check_same_stats (Printf.sprintf "toffoli batch=%d after 8 ququarts" batch) reference got)
    batches
    (List.combine fresh (runs ()))

let suite =
  [ case "every batched kernel class agrees with one-lane blocks" test_kernel_classes;
    case "generators cover Kernel.classes" test_class_coverage;
    case "block random fill is bit-identical per lane" test_fill_bit_identity;
    case "block random fill allocates <= 6 words per amplitude-lane" test_fill_allocation;
    case "damping step allocates 16 words at batch 8" test_damp_allocation;
    case "Rng draws match the boxed Box-Muller oracle" test_rng_matches_boxed_oracle;
    test_iter_supported;
    case "block leakage matches the per-index table sweep" test_leakage_reference;
    case "apply_lane mirrors State.apply bit-exactly" test_apply_lane;
    case "plane guards refuse foreign kernels and short planes" test_plane_guards;
    case "stale planes never leak into a smaller register" test_stale_planes_never_leak;
    case "batch×domains grid bit-identical (default model)" test_grid_default_model;
    case "batch×domains grid bit-identical (divergent model)" test_grid_divergent_model ]
