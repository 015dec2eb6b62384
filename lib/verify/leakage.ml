open Waltz_linalg
open Waltz_core

let level_mask_bits mask =
  List.filter (fun l -> mask land (1 lsl l) <> 0) [ 0; 1; 2; 3 ]

let pp_mask mask =
  "{" ^ String.concat "," (List.map string_of_int (level_mask_bits mask)) ^ "}"

(* A device level packs its slot bits with slot 0 as the high bit (Sec. 3
   encoding, cf. Equivalence.wire_bit): a lone qubit stored at slot 0
   spans levels {0,2}, at slot 1 levels {0,1}; empty slots are provably |0>. *)
let initial_masks (p : Physical.t) =
  let dim = p.Physical.device_dim in
  let slots = if dim = 4 then 2 else 1 in
  let occupied = Array.make_matrix p.Physical.device_count slots false in
  Array.iter
    (fun (d, s) -> if d >= 0 && d < p.Physical.device_count && s < slots then occupied.(d).(s) <- true)
    p.Physical.initial_map;
  Array.init p.Physical.device_count (fun d ->
      let mask = ref 0 in
      for level = 0 to dim - 1 do
        let admissible = ref true in
        for s = 0 to slots - 1 do
          let bit = (level lsr (slots - 1 - s)) land 1 in
          if bit = 1 && not occupied.(d).(s) then admissible := false
        done;
        if !admissible then mask := !mask lor (1 lsl level)
      done;
      !mask)

(* Squared amplitude below which a unitary entry counts as structurally
   zero. *)
let threshold = 1e-9

(* Image of the reachable product set through the op's lifted unitary.
   Touched devices get a strong update; quiet parts pass through. *)
let transfer ~device_dim:dim (op : Physical.op) (masks : int array) =
  match op.Physical.targets with
  | [] -> masks
  | _ ->
    let devices, u = Executor.lift_gate ~device_dim:dim op in
    let devs = Array.of_list devices in
    let m = Array.length devs in
    let dim_total = u.Mat.rows in
    let stride = Array.make m 1 in
    for k = m - 2 downto 0 do
      stride.(k) <- stride.(k + 1) * dim
    done;
    let level_of j k = j / stride.(k) mod dim in
    let out = Array.make m 0 in
    for j = 0 to dim_total - 1 do
      let admissible = ref true in
      for k = 0 to m - 1 do
        if masks.(devs.(k)) land (1 lsl level_of j k) = 0 then admissible := false
      done;
      if !admissible then
        for r = 0 to dim_total - 1 do
          (* |u_rj|², read in place: [Mat.get] would allocate per entry. *)
          let e = (r * dim_total) + j in
          let re = u.Mat.re.(e) and im = u.Mat.im.(e) in
          if (re *. re) +. (im *. im) > threshold then
            for k = 0 to m - 1 do
              out.(k) <- out.(k) lor (1 lsl level_of r k)
            done
        done
    done;
    let next = Array.copy masks in
    Array.iteri (fun k d -> next.(d) <- out.(k)) devs;
    next

let masks (p : Physical.t) =
  let states = Array.make (List.length p.Physical.ops + 1) (initial_masks p) in
  List.iteri
    (fun i op -> states.(i + 1) <- transfer ~device_dim:p.Physical.device_dim op states.(i))
    p.Physical.ops;
  states

let encoded_bits = (1 lsl 2) lor (1 lsl 3)

(* The ENC's packed device, if this op is an encode: the part ending at
   occupancy 2. Dually for decodes (the part starting at occupancy 2). *)
let enc_device (op : Physical.op) =
  if op.Physical.label <> "ENC" then None
  else
    List.find_map
      (fun (part : Physical.device_part) ->
        if part.Physical.occ_after = 2 then Some part.Physical.device else None)
      op.Physical.parts

let dec_device (op : Physical.op) =
  if op.Physical.label <> "ENCdg" then None
  else
    List.find_map
      (fun (part : Physical.device_part) ->
        if part.Physical.occ_before = 2 then Some part.Physical.device else None)
      op.Physical.parts

let touches_device d (op : Physical.op) =
  List.exists (fun (part : Physical.device_part) -> part.Physical.device = d) op.Physical.parts

let check (p : Physical.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let dim = p.Physical.device_dim in
  let ops = Array.of_list p.Physical.ops in
  let states = masks p in
  let encoded_visible = ref 0 in
  Array.iteri
    (fun i (op : Physical.op) ->
      if dim = 4 then begin
        let before = states.(i) in
        let exposed =
          List.filter
            (fun d -> before.(d) land encoded_bits <> 0)
            (List.sort_uniq compare (List.map fst op.Physical.targets))
        in
        if exposed <> [] then begin
          incr encoded_visible;
          if not op.Physical.touches_ww then
            add
              (Diagnostic.warning ~op_index:i "LEAK01"
                 (Printf.sprintf
                    "%s is not calibrated for |2>/|3> but device %d can hold %s here"
                    op.Physical.label (List.hd exposed)
                    (pp_mask (before.(List.hd exposed)))))
        end
      end;
      (* Dead ENC/DEC pair: the first op touching the freshly packed device
         is its own decode. *)
      match enc_device op with
      | None -> ()
      | Some d ->
        let rec next_touch j =
          if j >= Array.length ops then None
          else if touches_device d ops.(j) then Some j
          else next_touch (j + 1)
        in
        (match next_touch (i + 1) with
        | Some j when dec_device ops.(j) = Some d ->
          add
            (Diagnostic.warning ~op_index:i "LEAK02"
               ~fix:(Printf.sprintf "drop ops %d and %d" i j)
               (Printf.sprintf
                  "ENC at op %d is decoded at op %d with no pulse in between: the pair is \
                   dead"
                  i j))
        | _ -> ()))
    ops;
  if dim = 4 then begin
    let exit_masks = states.(Array.length ops) in
    let still_encoded =
      Array.to_list exit_masks
      |> List.mapi (fun d m -> (d, m))
      |> List.filter (fun (_, m) -> m land encoded_bits <> 0)
    in
    add
      (Diagnostic.info "LEAK03"
         (Printf.sprintf
            "%d of %d ops can see an encoded (|2>/|3>) device; %d device%s still encoded \
             at exit%s"
            !encoded_visible (Array.length ops) (List.length still_encoded)
            (if List.length still_encoded = 1 then "" else "s")
            (match still_encoded with
            | [] -> ""
            | l ->
              ": "
              ^ String.concat ", "
                  (List.map (fun (d, m) -> Printf.sprintf "dev%d=%s" d (pp_mask m)) l))))
  end;
  List.rev !diags
