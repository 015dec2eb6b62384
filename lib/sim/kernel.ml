open Waltz_linalg
module Scratch = Waltz_runtime.Scratch

(* A classified matrix: the entries the apply loops read. *)
type body =
  | Diagonal of { dre : float array; dim : float array }
  | Monomial of { src : int array; pre : float array; pim : float array }
  | Dense of { mre : float array; mim : float array }

(* How to enumerate the base indices (target digits all zero). The three
   shapes share one invariant: bases are visited in ascending index order,
   with no division in the loop body. *)
type iteration =
  | Single of { st : int; block : int }
  | Pair of { hi_step : int; n_hi : int; mid_step : int; n_mid : int; n_inner : int }
  | Odometer of { odims : int array; ostrides : int array; n_bases : int }

type t = {
  tgt : int array;
  g : int;
  n : int;
  offsets : int array;
  iter : iteration;
  body : body;
  cls : int;  (* index into [classes] *)
}

(* The class catalog, in classification order: the one list of names that
   telemetry counters, certificates and benches key on. *)
let classes = [ "diagonal"; "monomial"; "single_wire"; "two_wire"; "generic" ]

let class_table = Array.of_list classes

let strides_of dims =
  let nw = Array.length dims in
  let strides = Array.make nw 1 in
  for w = nw - 2 downto 0 do
    strides.(w) <- strides.(w + 1) * dims.(w + 1)
  done;
  strides

(* Subspace offset of each of the g target-digit combinations; identical
   construction to State.offsets_into so kernels and the generic path index
   the same amplitudes in the same order. *)
let offsets_of ~dims ~strides tgt g =
  let nt = Array.length tgt in
  let offsets = Array.make g 0 in
  for j = 0 to g - 1 do
    let rem = ref j and off = ref 0 in
    for k = nt - 1 downto 0 do
      let w = tgt.(k) in
      off := !off + (!rem mod dims.(w) * strides.(w));
      rem := !rem / dims.(w)
    done;
    offsets.(j) <- !off
  done;
  offsets

(* Structure of a matrix, independent of where it is applied. Exact
   (zero-tolerance) tests, so only true diagonals and true permutations with
   phases take the specialized bodies. *)
let classify m =
  match Mat.diagonal_entries m with
  | Some (dre, dim) -> Diagonal { dre; dim }
  | None -> begin
    match Mat.monomial_structure m with
    | Some (src, pre, pim) -> Monomial { src; pre; pim }
    | None -> Dense { mre = Array.copy m.Mat.re; mim = Array.copy m.Mat.im }
  end

let compile ~dims ~targets m =
  let nw = Array.length dims in
  List.iter
    (fun w -> if w < 0 || w >= nw then invalid_arg "Kernel.compile: wire out of range")
    targets;
  let tgt = Array.of_list targets in
  let nt = Array.length tgt in
  if nt = 0 then invalid_arg "Kernel.compile: no targets";
  if List.length (List.sort_uniq compare targets) <> nt then
    invalid_arg "Kernel.compile: duplicate targets";
  let strides = strides_of dims in
  let g = Array.fold_left (fun acc w -> acc * dims.(w)) 1 tgt in
  if m.Mat.rows <> g || m.Mat.cols <> g then
    invalid_arg "Kernel.compile: matrix dimension mismatch";
  let body = classify m in
  let n = Array.fold_left ( * ) 1 dims in
  let offsets = offsets_of ~dims ~strides tgt g in
  let iter =
    if nt = 1 then begin
      let w = tgt.(0) in
      Single { st = strides.(w); block = dims.(w) * strides.(w) }
    end
    else if nt = 2 then begin
      (* wa < wb in wire order, so strides.(wa) > strides.(wb): indices with
         both target digits zero decompose into high / mid / inner ranges. *)
      let wa = min tgt.(0) tgt.(1) and wb = max tgt.(0) tgt.(1) in
      let hi_step = dims.(wa) * strides.(wa) and mid_step = dims.(wb) * strides.(wb) in
      Pair
        { hi_step;
          n_hi = n / hi_step;
          mid_step;
          n_mid = strides.(wa) / mid_step;
          n_inner = strides.(wb) }
    end
    else begin
      let others = ref [] in
      for w = nw - 1 downto 0 do
        if not (Array.mem w tgt) then others := w :: !others
      done;
      let others = Array.of_list !others in
      Odometer
        { odims = Array.map (fun w -> dims.(w)) others;
          ostrides = Array.map (fun w -> strides.(w)) others;
          n_bases = Array.fold_left (fun acc w -> acc * dims.(w)) 1 others }
    end
  in
  let cls =
    match (body, iter) with
    | Diagonal _, _ -> 0
    | Monomial _, _ -> 1
    | Dense _, Single _ -> 2
    | Dense _, Pair _ -> 3
    | Dense _, Odometer _ -> 4
  in
  { tgt; g; n; offsets; iter; body; cls }

let class_index t = t.cls
let class_name t = class_table.(t.cls)
let targets t = Array.to_list t.tgt
let dim_total t = t.n
let dim_targets t = t.g

(* Payload bytes of a kernel (array contents, excluding OCaml block
   headers). Must track the arrays [compile] allocates exactly: an
   undercount here voids the certificate soundness argument. *)
let footprint_bytes t =
  let words = Array.length in
  let body =
    match t.body with
    | Diagonal { dre; dim } -> words dre + words dim
    | Monomial { src; pre; pim } -> words src + words pre + words pim
    | Dense { mre; mim } -> words mre + words mim
  in
  let iter =
    match t.iter with
    | Single _ | Pair _ -> 0
    | Odometer { odims; ostrides; _ } -> words odims + words ostrides
  in
  8 * (words t.tgt + words t.offsets + iter + body)

(* Enumerate bases in ascending order; [f] must not re-enter the same
   scratch slots. The closure is allocated once per [apply_block], not per
   base. *)
let iterate t f =
  match t.iter with
  | Single { st; block } ->
    for blk = 0 to (t.n / block) - 1 do
      let b0 = blk * block in
      for inner = 0 to st - 1 do
        f (b0 + inner)
      done
    done
  | Pair { hi_step; n_hi; mid_step; n_mid; n_inner } ->
    for h = 0 to n_hi - 1 do
      let hb = h * hi_step in
      for mi = 0 to n_mid - 1 do
        let mb = hb + (mi * mid_step) in
        for inner = 0 to n_inner - 1 do
          f (mb + inner)
        done
      done
    done
  | Odometer { odims; ostrides; n_bases } ->
    let no = Array.length odims in
    let counters = Scratch.ints (Scratch.get ()) 0 (max no 1) in
    Array.fill counters 0 (max no 1) 0;
    let base = ref 0 in
    for _ = 1 to n_bases do
      f !base;
      let k = ref (no - 1) in
      let carried = ref true in
      while !carried && !k >= 0 do
        counters.(!k) <- counters.(!k) + 1;
        base := !base + ostrides.(!k);
        if counters.(!k) = odims.(!k) then begin
          counters.(!k) <- 0;
          base := !base - (odims.(!k) * ostrides.(!k));
          decr k
        end
        else carried := false
      done
    done

(* Batched (structure-of-arrays) application: [live] trajectory lanes stored
   contiguously per amplitude with layout stride [cap] (amplitude [idx] of
   lane [k] lives at [idx * cap + k]). Every index pattern — bases, subspace
   offsets, matrix rows — is computed once and swept across all lanes in a
   dense inner float loop, so the index arithmetic amortizes over the whole
   batch and the inner loops vectorize. Per lane, the floating-point
   operations and their order do not depend on [cap] or [live], so each
   lane's result is bit-identical to a one-lane application ([cap = 1],
   which is exactly a plain state vector's layout). Planes may be longer
   than [n * cap] (a workspace kept from a larger register): positions
   past it are never read or written. *)
let apply_block t bre' bim' ~cap ~live =
  if live < 1 || live > cap then invalid_arg "Kernel.apply_block: bad lane count";
  if Array.length bre' < t.n * cap || Array.length bim' < t.n * cap then
    invalid_arg "Kernel.apply_block: planes shorter than n * cap";
  let offsets = t.offsets and g = t.g in
  match t.body with
  | Diagonal { dre; dim } when g = 4 ->
    (* Unrolled ququart-size phase sweep: offsets and entries in locals,
       same per-amplitude expressions as the generic branch. *)
    let o0 = offsets.(0) and o1 = offsets.(1) and o2 = offsets.(2) and o3 = offsets.(3) in
    let d0 = dre.(0) and e0 = dim.(0) and d1 = dre.(1) and e1 = dim.(1)
    and d2 = dre.(2) and e2 = dim.(2) and d3 = dre.(3) and e3 = dim.(3) in
    iterate t (fun base ->
        let p0 = (base + o0) * cap and p1 = (base + o1) * cap
        and p2 = (base + o2) * cap and p3 = (base + o3) * cap in
        for k = 0 to live - 1 do
          let r0 = bre'.(p0 + k) and m0 = bim'.(p0 + k) in
          bre'.(p0 + k) <- (d0 *. r0) -. (e0 *. m0);
          bim'.(p0 + k) <- (d0 *. m0) +. (e0 *. r0);
          let r1 = bre'.(p1 + k) and m1 = bim'.(p1 + k) in
          bre'.(p1 + k) <- (d1 *. r1) -. (e1 *. m1);
          bim'.(p1 + k) <- (d1 *. m1) +. (e1 *. r1);
          let r2 = bre'.(p2 + k) and m2 = bim'.(p2 + k) in
          bre'.(p2 + k) <- (d2 *. r2) -. (e2 *. m2);
          bim'.(p2 + k) <- (d2 *. m2) +. (e2 *. r2);
          let r3 = bre'.(p3 + k) and m3 = bim'.(p3 + k) in
          bre'.(p3 + k) <- (d3 *. r3) -. (e3 *. m3);
          bim'.(p3 + k) <- (d3 *. m3) +. (e3 *. r3)
        done)
  | Diagonal { dre; dim } ->
    iterate t (fun base ->
        for j = 0 to g - 1 do
          let p = (base + offsets.(j)) * cap in
          let a = dre.(j) and b = dim.(j) in
          for k = 0 to live - 1 do
            let re = bre'.(p + k) and im = bim'.(p + k) in
            bre'.(p + k) <- (a *. re) -. (b *. im);
            bim'.(p + k) <- (a *. im) +. (b *. re)
          done
        done)
  | Monomial { src; pre; pim } when live = 1 ->
    (* One lane ([--batch 1]): the lane loops would each run once per
       entry, so gather and scatter scalars directly. Same per-amplitude
       expressions as the lane-swept branch below. *)
    let scratch = Scratch.get () in
    let gre = Scratch.floats scratch 4 g and gim = Scratch.floats scratch 5 g in
    iterate t (fun base ->
        for j = 0 to g - 1 do
          let p = (base + offsets.(j)) * cap in
          gre.(j) <- bre'.(p);
          gim.(j) <- bim'.(p)
        done;
        for i = 0 to g - 1 do
          let j = src.(i) in
          let re = gre.(j) and im = gim.(j) in
          let a = pre.(i) and b = pim.(i) in
          let p = (base + offsets.(i)) * cap in
          bre'.(p) <- (a *. re) -. (b *. im);
          bim'.(p) <- (a *. im) +. (b *. re)
        done)
  | Monomial { src; pre; pim } ->
    let scratch = Scratch.get () in
    let gre = Scratch.floats scratch 4 (g * live)
    and gim = Scratch.floats scratch 5 (g * live) in
    iterate t (fun base ->
        for j = 0 to g - 1 do
          let p = (base + offsets.(j)) * cap and row = j * live in
          for k = 0 to live - 1 do
            gre.(row + k) <- bre'.(p + k);
            gim.(row + k) <- bim'.(p + k)
          done
        done;
        for i = 0 to g - 1 do
          let row = src.(i) * live in
          let a = pre.(i) and b = pim.(i) in
          let p = (base + offsets.(i)) * cap in
          for k = 0 to live - 1 do
            let re = gre.(row + k) and im = gim.(row + k) in
            bre'.(p + k) <- (a *. re) -. (b *. im);
            bim'.(p + k) <- (a *. im) +. (b *. re)
          done
        done)
  | Dense { mre; mim } when g = 2 ->
    (* The dominant dense shape: one slot of a ququart, or one qubit, on
       the executor's two-level wire view. Per base, both plane positions
       are computed once and every lane runs the same straight-line matvec
       on locals, with no scratch traffic. The sums are the generic
       branch's, in ascending j, so results are bit-identical to it. *)
    let o0 = offsets.(0) and o1 = offsets.(1) in
    let a00 = mre.(0) and b00 = mim.(0) and a01 = mre.(1) and b01 = mim.(1)
    and a10 = mre.(2) and b10 = mim.(2) and a11 = mre.(3) and b11 = mim.(3) in
    iterate t (fun base ->
        let p0 = (base + o0) * cap and p1 = (base + o1) * cap in
        for k = 0 to live - 1 do
          let r0 = bre'.(p0 + k) and m0 = bim'.(p0 + k)
          and r1 = bre'.(p1 + k) and m1 = bim'.(p1 + k) in
          bre'.(p0 + k) <- 0. +. (a00 *. r0) -. (b00 *. m0) +. (a01 *. r1) -. (b01 *. m1);
          bim'.(p0 + k) <- 0. +. (a00 *. m0) +. (b00 *. r0) +. (a01 *. m1) +. (b01 *. r1);
          bre'.(p1 + k) <- 0. +. (a10 *. r0) -. (b10 *. m0) +. (a11 *. r1) -. (b11 *. m1);
          bim'.(p1 + k) <- 0. +. (a10 *. m0) +. (b10 *. r0) +. (a11 *. m1) +. (b11 *. r1)
        done)
  | Dense { mre; mim } ->
    let scratch = Scratch.get () in
    let gre = Scratch.floats scratch 4 (g * live)
    and gim = Scratch.floats scratch 5 (g * live) in
    iterate t (fun base ->
        for j = 0 to g - 1 do
          let p = (base + offsets.(j)) * cap and row = j * live in
          for k = 0 to live - 1 do
            gre.(row + k) <- bre'.(p + k);
            gim.(row + k) <- bim'.(p + k)
          done
        done;
        for i = 0 to g - 1 do
          let row = i * g in
          let p = (base + offsets.(i)) * cap in
          for k = 0 to live - 1 do
            let acc_re = ref 0. and acc_im = ref 0. in
            let gi = ref k in
            for j = 0 to g - 1 do
              let a = mre.(row + j) and b = mim.(row + j) in
              let re = gre.(!gi) and im = gim.(!gi) in
              acc_re := !acc_re +. (a *. re) -. (b *. im);
              acc_im := !acc_im +. (a *. im) +. (b *. re);
              gi := !gi + live
            done;
            bre'.(p + k) <- !acc_re;
            bim'.(p + k) <- !acc_im
          done
        done)
