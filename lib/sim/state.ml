open Waltz_linalg
module Scratch = Waltz_runtime.Scratch

type t = { dims : int array; strides : int array; vec : Vec.t }

let strides_of dims =
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for w = n - 2 downto 0 do
    strides.(w) <- strides.(w + 1) * dims.(w + 1)
  done;
  strides

let total dims = Array.fold_left ( * ) 1 dims

let create ~dims =
  if Array.length dims = 0 then invalid_arg "State.create";
  Array.iter (fun d -> if d < 2 then invalid_arg "State.create: wire dimension < 2") dims;
  { dims = Array.copy dims; strides = strides_of dims; vec = Vec.basis (total dims) 0 }

let of_vec ~dims v =
  if Vec.dim v <> total dims then invalid_arg "State.of_vec: dimension mismatch";
  { dims = Array.copy dims; strides = strides_of dims; vec = Vec.copy v }

let random rng ~dims =
  of_vec ~dims (Vec.gaussian (fun () -> Rng.gaussian rng) (total dims))

(* The supported indices form a Cartesian product of per-wire level sets,
   so a nested walk over each wire's allowed levels, adding [level *
   stride], visits exactly them in ascending order (wire 0 is most
   significant) with no per-index division and no amplitude-sized table.
   The last wire has stride 1 and calls [f] directly. *)
let iter_supported ~dims ~allowed f =
  let nw = Array.length dims in
  if Array.length allowed <> nw then invalid_arg "State.iter_supported";
  Array.iteri
    (fun w table ->
      if Array.length table <> dims.(w) then
        invalid_arg "State.iter_supported: level table size mismatch")
    allowed;
  let strides = strides_of dims in
  let last = nw - 1 in
  let rec walk w base =
    let table = allowed.(w) in
    if w = last then
      for l = 0 to dims.(w) - 1 do
        if table.(l) then f (base + l)
      done
    else
      let st = strides.(w) in
      for l = 0 to dims.(w) - 1 do
        if table.(l) then walk (w + 1) (base + (l * st))
      done
  in
  if nw = 0 then f 0 else walk 0 0

(* In-place refill with a Haar-random state supported on the allowed levels
   (bool tables, wire-major). Overwrites every amplitude, so a reused buffer
   carries nothing across trajectories; the RNG draw order (re then im per
   supported index, ascending) matches the allocating constructors exactly.
   Each normal is stored straight into its plane ([Rng.gaussian_into]),
   never boxed. *)
let fill_random_supported s rng ~allowed =
  let v = s.vec in
  let n = Vec.dim v in
  Array.fill v.Vec.re 0 n 0.;
  Array.fill v.Vec.im 0 n 0.;
  let re = v.Vec.re and im = v.Vec.im in
  iter_supported ~dims:s.dims ~allowed (fun idx ->
      Rng.gaussian_into rng re idx;
      Rng.gaussian_into rng im idx);
  Vec.normalize_in_place v

(* A fresh state filled on the support [level_ok w l] describes. *)
let random_on rng ~dims level_ok =
  let s = { dims = Array.copy dims; strides = strides_of dims; vec = Vec.create (total dims) } in
  fill_random_supported s rng
    ~allowed:(Array.mapi (fun w d -> Array.init d (level_ok w)) dims);
  s

let random_in_levels rng ~dims ~levels =
  if Array.length levels <> Array.length dims then invalid_arg "State.random_in_levels";
  random_on rng ~dims (fun w l -> l < levels.(w))

let random_supported rng ~dims ~allowed =
  if Array.length allowed <> Array.length dims then invalid_arg "State.random_supported";
  random_on rng ~dims (fun w l -> List.mem l allowed.(w))

let copy s = { s with vec = Vec.copy s.vec }

let dims s = Array.copy s.dims
let dim_total s = Vec.dim s.vec
let amplitudes s = s.vec

let check_targets dims ~targets m =
  let nw = Array.length dims in
  List.iter (fun w -> if w < 0 || w >= nw then invalid_arg "State.apply: wire out of range") targets;
  let tgt = Array.of_list targets in
  let nt = Array.length tgt in
  if List.length (List.sort_uniq compare targets) <> nt then
    invalid_arg "State.apply: duplicate targets";
  let g = Array.fold_left (fun acc w -> acc * dims.(w)) 1 tgt in
  if m.Mat.rows <> g || m.Mat.cols <> g then invalid_arg "State.apply: matrix dimension mismatch";
  (tgt, g)

(* Offsets of the g target-digit combinations, written into [offsets]
   (a scratch buffer of length >= g). *)
let offsets_into offsets ~dims ~strides tgt g =
  let nt = Array.length tgt in
  for j = 0 to g - 1 do
    let rem = ref j and off = ref 0 in
    for k = nt - 1 downto 0 do
      let w = tgt.(k) in
      off := !off + (!rem mod dims.(w) * strides.(w));
      rem := !rem / dims.(w)
    done;
    offsets.(j) <- !off
  done

(* Odometer over the non-target wires; calls [kernel] once per base index.
   Uses scratch int slots 0 (counters) and 2 (other-wire list); [kernel]
   may use the float slots and int slot 1 but must not touch these. *)
let iter_bases ~dims ~strides tgt kernel =
  let nw = Array.length dims in
  let scratch = Scratch.get () in
  let others = Scratch.ints scratch 2 nw in
  let no = ref 0 in
  for w = 0 to nw - 1 do
    if not (Array.mem w tgt) then begin
      others.(!no) <- w;
      incr no
    end
  done;
  let no = !no in
  let counters = Scratch.ints scratch 0 (max no 1) in
  Array.fill counters 0 (max no 1) 0;
  let n_bases = ref 1 in
  for k = 0 to no - 1 do
    n_bases := !n_bases * dims.(others.(k))
  done;
  let base = ref 0 in
  for _ = 1 to !n_bases do
    kernel !base;
    let k = ref (no - 1) in
    let carried = ref true in
    while !carried && !k >= 0 do
      let w = others.(!k) in
      counters.(!k) <- counters.(!k) + 1;
      base := !base + strides.(w);
      if counters.(!k) = dims.(w) then begin
        counters.(!k) <- 0;
        base := !base - (dims.(w) * strides.(w));
        decr k
      end
      else carried := false
    done
  done

(* The reference gather/multiply/scatter: per base, gather the g
   amplitudes of the target subspace, multiply by the full matrix with j
   ascending, scatter back. Amplitude [idx] sits at [idx * cap + lane] of
   the planes; the stride and lane offset only move the index, so every
   layout performs the same floating-point operations in the same order. *)
let apply_strided ~dims ~strides vre vim ~cap ~lane ~targets m =
  let tgt, g = check_targets dims ~targets m in
  let scratch = Scratch.get () in
  let offsets = Scratch.ints scratch 1 g in
  offsets_into offsets ~dims ~strides tgt g;
  let gre = Scratch.floats scratch 0 g and gim = Scratch.floats scratch 1 g in
  let mre = m.Mat.re and mim = m.Mat.im in
  iter_bases ~dims ~strides tgt (fun base ->
      for j = 0 to g - 1 do
        let p = ((base + offsets.(j)) * cap) + lane in
        gre.(j) <- vre.(p);
        gim.(j) <- vim.(p)
      done;
      for i = 0 to g - 1 do
        let acc_re = ref 0. and acc_im = ref 0. in
        let row = i * g in
        for j = 0 to g - 1 do
          let a = mre.(row + j) and b = mim.(row + j) in
          acc_re := !acc_re +. (a *. gre.(j)) -. (b *. gim.(j));
          acc_im := !acc_im +. (a *. gim.(j)) +. (b *. gre.(j))
        done;
        let p = ((base + offsets.(i)) * cap) + lane in
        vre.(p) <- !acc_re;
        vim.(p) <- !acc_im
      done)

let apply s ~targets m =
  apply_strided ~dims:s.dims ~strides:s.strides s.vec.Vec.re s.vec.Vec.im ~cap:1 ~lane:0
    ~targets m

let apply_planes ~dims re im ~cap ~lane ~targets m =
  if lane < 0 || lane >= cap then invalid_arg "State.apply_planes: lane out of range";
  if Array.length re < total dims * cap || Array.length im < total dims * cap then
    invalid_arg "State.apply_planes: planes shorter than n * cap";
  apply_strided ~dims ~strides:(strides_of dims) re im ~cap ~lane ~targets m

(* Marginal populations over a blocked loop (blocks of d * stride, then
   each level's contiguous inner range): no per-index division, and each
   pops.(level) accumulates its addends in the same (ascending-index)
   order as a flat scan, so the sums are bit-identical to it. [pops] must
   have length >= d. *)
let populations_into pops s ~wire =
  let d = s.dims.(wire) and st = s.strides.(wire) in
  Array.fill pops 0 d 0.;
  let vre = s.vec.Vec.re and vim = s.vec.Vec.im in
  let block = d * st in
  let n = Vec.dim s.vec in
  for blk = 0 to (n / block) - 1 do
    let b0 = blk * block in
    for level = 0 to d - 1 do
      let lb = b0 + (level * st) in
      let acc = ref pops.(level) in
      for inner = 0 to st - 1 do
        let idx = lb + inner in
        acc := !acc +. (vre.(idx) *. vre.(idx)) +. (vim.(idx) *. vim.(idx))
      done;
      pops.(level) <- !acc
    done
  done

let populations s ~wire =
  let pops = Array.make s.dims.(wire) 0. in
  populations_into pops s ~wire;
  pops

let damp_scales lambdas = Array.map (fun l -> sqrt (1. -. l)) lambdas

(* One damping trajectory step with the no-jump scales precomputed (the
   executor resolves them once per plan; [damp] below computes them fresh).
   All scratch is per-domain, so the only RNG draw is the jump choice —
   same draw, same weights, same bits as the allocating version. *)
let damp_with s rng ~wire ~lambdas ~scales =
  let d = s.dims.(wire) in
  if Array.length lambdas <> d then invalid_arg "State.damp: lambda count mismatch";
  if Array.length scales <> d then invalid_arg "State.damp: scale count mismatch";
  let scratch = Scratch.get () in
  let pops = Scratch.floats scratch 2 d in
  populations_into pops s ~wire;
  (* weights.(0) = no-jump; weights.(m) = jump from level m for m in
     1..d-1 (λ_0 = 0). Exact length d: weighted_choice scans the array. *)
  let weights = Scratch.floats_exact scratch 3 d in
  let p_nojump = ref 0. in
  for l = 0 to d - 1 do
    p_nojump := !p_nojump +. ((1. -. lambdas.(l)) *. pops.(l))
  done;
  weights.(0) <- !p_nojump;
  for m = 1 to d - 1 do
    weights.(m) <- lambdas.(m) *. pops.(m)
  done;
  let choice = Rng.weighted_choice rng weights in
  let st = s.strides.(wire) in
  let vre = s.vec.Vec.re and vim = s.vec.Vec.im in
  let block = d * st in
  let n = Vec.dim s.vec in
  if choice = 0 then
    for blk = 0 to (n / block) - 1 do
      let b0 = blk * block in
      for level = 0 to d - 1 do
        let lb = b0 + (level * st) in
        let sc = scales.(level) in
        for inner = 0 to st - 1 do
          let idx = lb + inner in
          vre.(idx) <- vre.(idx) *. sc;
          vim.(idx) <- vim.(idx) *. sc
        done
      done
    done
  else begin
    let m = choice in
    for blk = 0 to (n / block) - 1 do
      let b0 = blk * block in
      for inner = 0 to st - 1 do
        let idx = b0 + inner in
        let src = idx + (m * st) in
        vre.(idx) <- vre.(src);
        vim.(idx) <- vim.(src)
      done;
      Array.fill vre (b0 + st) (block - st) 0.;
      Array.fill vim (b0 + st) (block - st) 0.
    done
  end;
  Vec.normalize_in_place s.vec

let damp s rng ~wire ~lambdas =
  if Array.length lambdas <> s.dims.(wire) then
    invalid_arg "State.damp: lambda count mismatch";
  damp_with s rng ~wire ~lambdas ~scales:(damp_scales lambdas)

let overlap2 a b = Vec.overlap2 a.vec b.vec
let norm s = Vec.norm s.vec
let normalize s = Vec.normalize_in_place s.vec

let basis_probability s idx =
  (s.vec.Vec.re.(idx) *. s.vec.Vec.re.(idx)) +. (s.vec.Vec.im.(idx) *. s.vec.Vec.im.(idx))

let sample rng s =
  let n = Vec.dim s.vec in
  let x = ref (Rng.float rng 1.) in
  let idx = ref (n - 1) in
  (try
     for k = 0 to n - 1 do
       let p = (s.vec.Vec.re.(k) *. s.vec.Vec.re.(k)) +. (s.vec.Vec.im.(k) *. s.vec.Vec.im.(k)) in
       x := !x -. p;
       if !x <= 0. then begin
         idx := k;
         raise Exit
       end
     done
   with Exit -> ());
  !idx

let sample_counts rng s ~shots =
  let table = Hashtbl.create 16 in
  for _ = 1 to shots do
    let k = sample rng s in
    Hashtbl.replace table k (1 + Option.value ~default:0 (Hashtbl.find_opt table k))
  done;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let pp ppf s =
  Format.fprintf ppf "state over [%s]: %a"
    (String.concat "; " (Array.to_list (Array.map string_of_int s.dims)))
    Vec.pp s.vec
