open Waltz_linalg
module Scratch = Waltz_runtime.Scratch

(* Structure-of-arrays block of up to [cap] trajectory states over one
   register. Amplitude [idx] of lane [k] lives at [idx * cap + k] of the
   re/im planes, so a kernel sweeping one amplitude index touches all lanes
   contiguously — the inner loops over [k] are dense, branch-free and
   vectorizable. [live <= cap] lanes are in use; the trailing partial block
   of a trajectory run reuses the same planes without reallocating. The
   planes may be longer than [n * cap] ([of_planes]); every operation here
   works on [0, n * cap) only. *)
type t = {
  dims : int array;
  strides : int array;
  n : int;  (* amplitudes per lane *)
  cap : int;  (* lane capacity (layout stride) *)
  mutable live : int;  (* lanes in use, in [1, cap] *)
  re : float array;
  im : float array;
}

let strides_of dims =
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for w = n - 2 downto 0 do
    strides.(w) <- strides.(w + 1) * dims.(w + 1)
  done;
  strides

(* Amplitudes per lane of a valid shape. *)
let amplitudes ~dims ~cap =
  if Array.length dims = 0 then invalid_arg "State_block: no wires";
  Array.iter (fun d -> if d < 2 then invalid_arg "State_block: wire dimension < 2") dims;
  if cap < 1 then invalid_arg "State_block: capacity < 1";
  Array.fold_left ( * ) 1 dims

let of_planes ~dims ~cap re im =
  let n = amplitudes ~dims ~cap in
  if Array.length re < n * cap || Array.length im < n * cap then
    invalid_arg "State_block.of_planes: planes shorter than n * cap";
  { dims = Array.copy dims; strides = strides_of dims; n; cap; live = cap; re; im }

let create ~dims ~cap =
  let len = amplitudes ~dims ~cap * cap in
  of_planes ~dims ~cap (Array.make len 0.) (Array.make len 0.)

let dim_total t = t.n

let set_live t l =
  if l < 1 || l > t.cap then invalid_arg "State_block.set_live";
  t.live <- l

let assign ~dst ~src =
  if dst.dims <> src.dims || dst.cap <> src.cap then
    invalid_arg "State_block.assign: shape mismatch";
  let len = src.n * src.cap in
  Array.blit src.re 0 dst.re 0 len;
  Array.blit src.im 0 dst.im 0 len;
  dst.live <- src.live

let read_lane t k =
  if k < 0 || k >= t.live then invalid_arg "State_block.read_lane";
  let v = Vec.create t.n in
  for idx = 0 to t.n - 1 do
    let p = (idx * t.cap) + k in
    v.Vec.re.(idx) <- t.re.(p);
    v.Vec.im.(idx) <- t.im.(p)
  done;
  v

let write_lane t k v =
  if k < 0 || k >= t.live then invalid_arg "State_block.write_lane";
  if Vec.dim v <> t.n then invalid_arg "State_block.write_lane: dimension mismatch";
  for idx = 0 to t.n - 1 do
    let p = (idx * t.cap) + k in
    t.re.(p) <- v.Vec.re.(idx);
    t.im.(p) <- v.Vec.im.(idx)
  done

(* Normalizes one lane. Its norm² accumulates in ascending amplitude
   order, the addend sequence of [Vec.normalize_in_place] on a state
   vector, so the scale (and everything downstream) is bit-identical. *)
let normalize_lane t k =
  let acc = ref 0. in
  for idx = 0 to t.n - 1 do
    let p = (idx * t.cap) + k in
    acc := !acc +. (t.re.(p) *. t.re.(p)) +. (t.im.(p) *. t.im.(p))
  done;
  let nrm = sqrt !acc in
  if nrm = 0. then invalid_arg "State_block.normalize_lane: zero vector";
  let s = 1. /. nrm in
  for idx = 0 to t.n - 1 do
    let p = (idx * t.cap) + k in
    t.re.(p) <- t.re.(p) *. s;
    t.im.(p) <- t.im.(p) *. s
  done

(* Per-lane Haar-random refill on the allowed support, in one
   [State.iter_supported] walk shared by all lanes. Lanes draw from their
   own RNGs, so interleaving them per index leaves each stream in the
   exact scalar order: re then im per supported index, ascending — lane
   [k] sees the same gaussian sequence as a scalar
   [State.random_supported] with [rngs.(k)]. Each normal is stored
   straight into its plane slot ([Rng.gaussian_into]), never boxed. *)
let fill_random_supported t rngs ~allowed =
  if Array.length rngs < t.live then
    invalid_arg "State_block.fill_random_supported: rng count mismatch";
  let cap = t.cap and live = t.live in
  let re = t.re and im = t.im in
  Array.fill re 0 (t.n * cap) 0.;
  Array.fill im 0 (t.n * cap) 0.;
  State.iter_supported ~dims:t.dims ~allowed (fun idx ->
      let p = idx * cap in
      for k = 0 to live - 1 do
        let rng = rngs.(k) in
        Rng.gaussian_into rng re (p + k);
        Rng.gaussian_into rng im (p + k)
      done);
  for k = 0 to live - 1 do
    normalize_lane t k
  done

(* Per-lane population outside the allowed support: the inside weight
   accumulates in [out] over the supported indices in ascending order, so
   each lane sums the same addends in the same order at every width. *)
let leakage_into out t ~allowed =
  if Array.length out < t.live then invalid_arg "State_block.leakage_into";
  let cap = t.cap and live = t.live in
  let re = t.re and im = t.im in
  Array.fill out 0 live 0.;
  State.iter_supported ~dims:t.dims ~allowed (fun idx ->
      let p = idx * cap in
      for k = 0 to live - 1 do
        out.(k) <- out.(k) +. (re.(p + k) *. re.(p + k)) +. (im.(p + k) *. im.(p + k))
      done);
  for k = 0 to live - 1 do
    out.(k) <- 1. -. out.(k)
  done

(* The no-jump Kraus diagonal √(1 − λ_m) of a damping window. *)
let damp_scales lambdas = Array.map (fun l -> sqrt (1. -. l)) lambdas

(* Marginal level populations of one wire for every lane, into [w] at
   [level * cap + k]; each lane's addends accumulate in ascending (block,
   inner) order, the order of a flat scan of its amplitudes. *)
let populations_into w t ~wire =
  let d = t.dims.(wire) and st = t.strides.(wire) in
  let cap = t.cap and live = t.live in
  Array.fill w 0 (d * cap) 0.;
  let re = t.re and im = t.im in
  let block = d * st in
  for blk = 0 to (t.n / block) - 1 do
    let b0 = blk * block in
    for level = 0 to d - 1 do
      let lb = b0 + (level * st) in
      let prow = level * cap in
      for inner = 0 to st - 1 do
        let p = (lb + inner) * cap in
        for k = 0 to live - 1 do
          let a = re.(p + k) and b = im.(p + k) in
          w.(prow + k) <- w.(prow + k) +. (a *. a) +. (b *. b)
        done
      done
    done
  done

(* Each lane's populations become its branch weights in place: the no-jump
   weight Σ_l (1 − λ_l)·pop_l reads every level before slot 0 is
   overwritten, and jump m's weight λ_m·pop_m reads only its own slot. *)
let damp_weights w t ~wire ~lambdas =
  let d = t.dims.(wire) in
  if Array.length lambdas <> d then invalid_arg "State_block.damp: lambda count mismatch";
  if Array.length w < d * t.cap then invalid_arg "State_block.damp_weights: buffer too short";
  populations_into w t ~wire;
  let cap = t.cap in
  for k = 0 to t.live - 1 do
    let p_nojump = ref 0. in
    for l = 0 to d - 1 do
      p_nojump := !p_nojump +. ((1. -. lambdas.(l)) *. w.((l * cap) + k))
    done;
    w.(k) <- !p_nojump;
    for m = 1 to d - 1 do
      w.((m * cap) + k) <- lambdas.(m) *. w.((m * cap) + k)
    done
  done

(* Applies each lane's chosen branch and renormalizes. When no lane jumps
   — the overwhelmingly common case at physical λ — a single shared
   sweep scales all lanes; otherwise a combined masked sweep applies each
   lane's own branch (scale vs jump-copy vs zero) per position. Reading the
   jump source [idx + m*st] is safe inside the combined sweep because
   levels are processed in ascending order: level 0 of a block is
   rewritten before any source level m >= 1 of that block. Returns the
   number of lanes that jumped (the mask-divergence count for
   telemetry). *)
let damp_apply t choices ~wire ~scales =
  let d = t.dims.(wire) in
  if Array.length scales <> d then invalid_arg "State_block.damp: scale count mismatch";
  if Array.length choices < t.live then invalid_arg "State_block.damp: choice count mismatch";
  let cap = t.cap and live = t.live in
  let jumps = ref 0 in
  for k = 0 to live - 1 do
    let c = choices.(k) in
    if c < 0 || c >= d then invalid_arg "State_block.damp_apply: branch out of range";
    if c > 0 then incr jumps
  done;
  let st = t.strides.(wire) in
  let re = t.re and im = t.im in
  let block = d * st in
  (* Both rewrite sweeps visit amplitude indices in ascending order
     (blocks ascend, and [level * st + inner] covers [0, d*st) ascending
     within a block), so accumulating each lane's norm² from the values
     being written reproduces a flat scan's addend sequence exactly — the
     separate read-back sweep of a per-lane normalize is saved. Zeroed
     positions contribute an exact [+. 0.], which is skipped: it cannot
     change a non-negative partial sum. The accumulator is float slot 6,
     where [damp_with]'s weights are dead once the choices are drawn. *)
  let norm2 = Scratch.floats (Scratch.get ()) 6 live in
  Array.fill norm2 0 live 0.;
  if !jumps = 0 then
    (* Lockstep fast path: every lane takes the no-jump branch, so the
       per-level scale sweeps all lanes with no mask test. *)
    for blk = 0 to (t.n / block) - 1 do
      let b0 = blk * block in
      for level = 0 to d - 1 do
        let lb = b0 + (level * st) in
        let sc = scales.(level) in
        for inner = 0 to st - 1 do
          let p = (lb + inner) * cap in
          for k = 0 to live - 1 do
            let r = re.(p + k) *. sc and m = im.(p + k) *. sc in
            re.(p + k) <- r;
            im.(p + k) <- m;
            norm2.(k) <- norm2.(k) +. (r *. r) +. (m *. m)
          done
        done
      done
    done
  else
    (* Divergent lanes: one combined sweep, branching per lane on its own
       choice. *)
    for blk = 0 to (t.n / block) - 1 do
      let b0 = blk * block in
      for level = 0 to d - 1 do
        let lb = b0 + (level * st) in
        let sc = scales.(level) in
        for inner = 0 to st - 1 do
          let idx = lb + inner in
          let p = idx * cap in
          for k = 0 to live - 1 do
            let c = choices.(k) in
            if c = 0 then begin
              let r = re.(p + k) *. sc and m = im.(p + k) *. sc in
              re.(p + k) <- r;
              im.(p + k) <- m;
              norm2.(k) <- norm2.(k) +. (r *. r) +. (m *. m)
            end
            else if level = 0 then begin
              let src = (idx + (c * st)) * cap in
              let r = re.(src + k) and m = im.(src + k) in
              re.(p + k) <- r;
              im.(p + k) <- m;
              norm2.(k) <- norm2.(k) +. (r *. r) +. (m *. m)
            end
            else begin
              re.(p + k) <- 0.;
              im.(p + k) <- 0.
            end
          done
        done
      done
    done;
  (* The per-lane inverse norms overwrite the accumulator, then one
     idx-major sweep rescales every lane — the same per-lane scale factor
     (and bits) as [normalize_lane], with contiguous instead of strided
     writes. *)
  for k = 0 to live - 1 do
    let nrm = sqrt norm2.(k) in
    if nrm = 0. then invalid_arg "State_block.damp: zero vector";
    norm2.(k) <- 1. /. nrm
  done;
  for idx = 0 to t.n - 1 do
    let p = idx * cap in
    for k = 0 to live - 1 do
      re.(p + k) <- re.(p + k) *. norm2.(k);
      im.(p + k) <- im.(p + k) *. norm2.(k)
    done
  done;
  !jumps

(* One amplitude-damping trajectory step on a wire, for every live lane:
   the branch weights, one weighted draw per lane from its own RNG, then
   the chosen branches. All buffers are per-domain scratch, so the step
   allocates no arrays. *)
let damp_with t rngs ~wire ~lambdas ~scales =
  let d = t.dims.(wire) in
  if Array.length rngs < t.live then invalid_arg "State_block.damp: rng count mismatch";
  let cap = t.cap in
  let scratch = Scratch.get () in
  let w = Scratch.floats scratch 6 (d * cap) in
  damp_weights w t ~wire ~lambdas;
  (* Exact length d: [Rng.weighted_choice] scans the whole array. *)
  let lane_w = Scratch.floats_exact scratch 3 d in
  let choices = Scratch.ints scratch 4 cap in
  for k = 0 to t.live - 1 do
    for b = 0 to d - 1 do
      lane_w.(b) <- w.((b * cap) + k)
    done;
    choices.(k) <- Rng.weighted_choice rngs.(k) lane_w
  done;
  damp_apply t choices ~wire ~scales

(* The planes may be longer than [n * cap], so [Kernel.apply_block]'s
   length guard no longer tells a kernel of a smaller register from ours. *)
let apply_kernel t kern =
  if Kernel.dim_total kern <> t.n then
    invalid_arg "State_block.apply_kernel: kernel compiled for another amplitude count";
  Kernel.apply_block kern t.re t.im ~cap:t.cap ~live:t.live

(* Gate application to one lane: [State.apply]'s own loop at lane
   positions [idx * cap + k], so the lane gets a state vector's bits. Used
   for the rare divergent branches — per-lane error injections — where
   lanes apply different operators and lockstep would be wrong. Never
   nested inside a batched kernel sweep. *)
let apply_lane t k ~targets m =
  if k < 0 || k >= t.live then invalid_arg "State_block.apply_lane";
  State.apply_planes ~dims:t.dims t.re t.im ~cap:t.cap ~lane:k ~targets m

(* |⟨a_k|b_k⟩|² per lane, into [out]. Per lane the accumulation matches
   [Vec.overlap2]'s ascending-index order. *)
let overlap2_into out a b =
  if a.dims <> b.dims || a.cap <> b.cap || a.live <> b.live then
    invalid_arg "State_block.overlap2_into: shape mismatch";
  if Array.length out < a.live then invalid_arg "State_block.overlap2_into";
  let cap = a.cap in
  for k = 0 to a.live - 1 do
    let racc = ref 0. and iacc = ref 0. in
    for idx = 0 to a.n - 1 do
      let p = (idx * cap) + k in
      let are = a.re.(p) and aim = a.im.(p) in
      let bre = b.re.(p) and bim = b.im.(p) in
      racc := !racc +. (are *. bre) +. (aim *. bim);
      iacc := !iacc +. (are *. bim) -. (aim *. bre)
    done;
    out.(k) <- (!racc *. !racc) +. (!iacc *. !iacc)
  done
