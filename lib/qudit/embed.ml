open Waltz_linalg

let index_of_digits ~dims digits =
  if Array.length digits <> Array.length dims then invalid_arg "Embed.index_of_digits";
  let acc = ref 0 in
  Array.iteri
    (fun i d ->
      if digits.(i) < 0 || digits.(i) >= d then invalid_arg "Embed.index_of_digits: digit range";
      acc := (!acc * d) + digits.(i))
    dims;
  !acc

let digits_of_index ~dims idx =
  let n = Array.length dims in
  let digits = Array.make n 0 in
  let rem = ref idx in
  for i = n - 1 downto 0 do
    digits.(i) <- !rem mod dims.(i);
    rem := !rem / dims.(i)
  done;
  if !rem <> 0 then invalid_arg "Embed.digits_of_index: index out of range";
  digits

let on_wires ~dims ~targets u =
  let n = Array.length dims in
  List.iter
    (fun t -> if t < 0 || t >= n then invalid_arg "Embed.on_wires: target out of range")
    targets;
  let is_target = Array.make n false in
  List.iter
    (fun t ->
      if is_target.(t) then invalid_arg "Embed.on_wires: duplicate targets";
      is_target.(t) <- true)
    targets;
  let tgt = Array.of_list targets in
  let sub_dim = Array.fold_left (fun acc t -> acc * dims.(t)) 1 tgt in
  if u.Mat.rows <> sub_dim || u.Mat.cols <> sub_dim then
    invalid_arg "Embed.on_wires: unitary dimension mismatch";
  let total = Array.fold_left ( * ) 1 dims in
  let stride = Array.make n 1 in
  for w = n - 2 downto 0 do
    stride.(w) <- stride.(w + 1) * dims.(w + 1)
  done;
  (* The offset of each digit combination of [wires], first wire most
     significant. *)
  let offsets_of wires =
    Array.init
      (Array.fold_left (fun acc w -> acc * dims.(w)) 1 wires)
      (fun k ->
        let rem = ref k and off = ref 0 in
        for i = Array.length wires - 1 downto 0 do
          let w = wires.(i) in
          off := !off + (!rem mod dims.(w) * stride.(w));
          rem := !rem / dims.(w)
        done;
        !off)
  in
  (* A base index has every target digit zero: the offsets of the
     spectator wires' digits. The lift holds u's entry (i, j) at
     (base + offset i, base + offset j) and zeros elsewhere. *)
  let offsets = offsets_of tgt in
  let spectators = List.filter (fun w -> not is_target.(w)) (List.init n Fun.id) in
  let bases = offsets_of (Array.of_list spectators) in
  let m = Mat.zeros total total in
  Array.iter
    (fun base ->
      for i = 0 to sub_dim - 1 do
        let row = ((base + offsets.(i)) * total) + base in
        for j = 0 to sub_dim - 1 do
          m.Mat.re.(row + offsets.(j)) <- u.Mat.re.((i * sub_dim) + j);
          m.Mat.im.(row + offsets.(j)) <- u.Mat.im.((i * sub_dim) + j)
        done
      done)
    bases;
  m

let on_qubits ~n ~targets u = on_wires ~dims:(Array.make n 2) ~targets u
