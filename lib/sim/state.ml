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

(* Each supported amplitude draws its real then its imaginary part, in
   ascending index order (the order [State_block.fill_random_supported]
   draws each lane in); each normal is stored straight into its plane
   ([Rng.gaussian_into]), never boxed. *)
let random_supported rng ~dims ~allowed =
  if Array.length allowed <> Array.length dims then invalid_arg "State.random_supported";
  let v = Vec.create (total dims) in
  iter_supported ~dims
    ~allowed:(Array.mapi (fun w d -> Array.init d (fun l -> List.mem l allowed.(w))) dims)
    (fun idx ->
      Rng.gaussian_into rng v.Vec.re idx;
      Rng.gaussian_into rng v.Vec.im idx);
  Vec.normalize_in_place v;
  { dims = Array.copy dims; strides = strides_of dims; vec = v }

let copy s = { s with vec = Vec.copy s.vec }

let dims s = Array.copy s.dims
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

let basis_probability s idx =
  (s.vec.Vec.re.(idx) *. s.vec.Vec.re.(idx)) +. (s.vec.Vec.im.(idx) *. s.vec.Vec.im.(idx))
