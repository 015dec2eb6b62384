open Waltz_circuit

type family = Cnu | Cuccaro | Qram | Select

let family_name = function
  | Cnu -> "CNU"
  | Cuccaro -> "Cuccaro"
  | Qram -> "QRAM"
  | Select -> "Select"

let all_families = [ Cnu; Cuccaro; Qram; Select ]

(* The circuit of the gates [body] passes to [add], in that order. They are
   consed and reversed once, so a generator is linear in its gate count
   ([Circuit.add] copies the list on every gate). *)
let build n body =
  let gates = ref [] in
  body (fun kind qubits -> gates := Gate.make kind qubits :: !gates);
  Circuit.of_gates ~n (List.rev !gates)

let cnu ~controls =
  if controls < 2 then invalid_arg "Bench_circuits.cnu: need at least 2 controls";
  let n = (2 * controls) - 1 in
  let target = n - 1 in
  build n @@ fun add ->
  (* Reduce the active set with a tree of Toffolis onto fresh ancillas until
     two remain, apply the final Toffoli to the target, then uncompute. *)
  let next_ancilla = ref controls in
  let compute = ref [] in
  let rec reduce active =
    match active with
    | [ a; b ] -> add Gate.Ccx [ a; b; target ]
    | [ a ] -> add Gate.Cx [ a; target ]
    | _ ->
      let rec pair = function
        | a :: b :: rest ->
          let anc = !next_ancilla in
          incr next_ancilla;
          compute := (a, b, anc) :: !compute;
          add Gate.Ccx [ a; b; anc ];
          anc :: pair rest
        | [ a ] -> [ a ]
        | [] -> []
      in
      reduce (pair active)
  in
  reduce (List.init controls Fun.id);
  List.iter (fun (a, b, anc) -> add Gate.Ccx [ a; b; anc ]) !compute

let cuccaro ~bits =
  if bits < 1 then invalid_arg "Bench_circuits.cuccaro";
  let n = (2 * bits) + 2 in
  (* Layout: 0 = input carry, then interleaved b_i, a_i, finally carry-out. *)
  let b i = 1 + (2 * i) and a i = 2 + (2 * i) in
  let carry_out = n - 1 in
  build n @@ fun add ->
  let maj x y z =
    add Gate.Cx [ z; y ];
    add Gate.Cx [ z; x ];
    add Gate.Ccx [ x; y; z ]
  in
  let uma x y z =
    add Gate.Ccx [ x; y; z ];
    add Gate.Cx [ z; x ];
    add Gate.Cx [ x; y ]
  in
  maj 0 (b 0) (a 0);
  for i = 1 to bits - 1 do
    maj (a (i - 1)) (b i) (a i)
  done;
  add Gate.Cx [ a (bits - 1); carry_out ];
  for i = bits - 1 downto 1 do
    uma (a (i - 1)) (b i) (a i)
  done;
  uma 0 (b 0) (a 0)

let qram ~address_bits ~cells =
  if cells < 2 then invalid_arg "Bench_circuits.qram: need at least 2 cells";
  if cells > 1 lsl address_bits then
    invalid_arg "Bench_circuits.qram: more cells than the address can select";
  let n = address_bits + cells + 1 in
  let addr i = i and mem j = address_bits + j in
  let bus = n - 1 in
  build n @@ fun add ->
  let route () =
    let ops = ref [] in
    for i = 0 to address_bits - 1 do
      for j = 0 to cells - 1 do
        if j land (1 lsl i) <> 0 && j lxor (1 lsl i) < cells then begin
          add Gate.Cswap [ addr i; mem j; mem (j lxor (1 lsl i)) ];
          ops := (addr i, mem j, mem (j lxor (1 lsl i))) :: !ops
        end
      done
    done;
    !ops
  in
  let ops = route () in
  add Gate.Cx [ mem 0; bus ];
  List.iter (fun (a, x, y) -> add Gate.Cswap [ a; x; y ]) ops

let select ~index_bits ~system ~selections ~seed =
  if index_bits < 2 then invalid_arg "Bench_circuits.select: need at least 2 index bits";
  if system < 1 then invalid_arg "Bench_circuits.select";
  let n = (2 * index_bits) - 1 + system in
  let idx i = i
  and anc i = index_bits + i
  and sys i = (2 * index_bits) - 1 + i in
  let rng = Random.State.make [| seed |] in
  build n @@ fun add ->
  let flip_for value =
    for i = 0 to index_bits - 1 do
      if value land (1 lsl i) = 0 then add Gate.X [ idx i ]
    done
  in
  let and_chain () =
    add Gate.Ccx [ idx 0; idx 1; anc 0 ];
    for i = 2 to index_bits - 1 do
      add Gate.Ccx [ anc (i - 2); idx i; anc (i - 1) ]
    done
  in
  let unand_chain () =
    for i = index_bits - 1 downto 2 do
      add Gate.Ccx [ anc (i - 2); idx i; anc (i - 1) ]
    done;
    add Gate.Ccx [ idx 0; idx 1; anc 0 ]
  in
  let top_anc = anc (index_bits - 2) in
  List.iter
    (fun value ->
      flip_for value;
      and_chain ();
      (* A controlled pseudo-random Pauli string on the system register. *)
      for q = 0 to system - 1 do
        match Random.State.int rng 3 with
        | 0 -> add Gate.Cx [ top_anc; sys q ]
        | 1 -> add Gate.Cz [ top_anc; sys q ]
        | _ ->
          (* controlled Y = Sdg; CX; S on the target *)
          add Gate.Sdg [ sys q ];
          add Gate.Cx [ top_anc; sys q ];
          add Gate.S [ sys q ]
      done;
      unand_chain ();
      flip_for value)
    selections

let synthetic ~n ~gates ~cx_fraction ~seed =
  if n < 3 then invalid_arg "Bench_circuits.synthetic: need at least 3 qubits";
  (* Negated, so that NaN is refused too. *)
  if not (cx_fraction >= 0. && cx_fraction <= 1.) then
    invalid_arg "Bench_circuits.synthetic: cx_fraction must be in [0, 1]";
  let rng = Random.State.make [| seed |] in
  let distinct k =
    let rec draw acc =
      if List.length acc = k then acc
      else
        let q = Random.State.int rng n in
        if List.mem q acc then draw acc else draw (q :: acc)
    in
    draw []
  in
  build n @@ fun add ->
  for _ = 1 to gates do
    if Random.State.float rng 1. < cx_fraction then add Gate.Cx (distinct 2)
    else add Gate.Ccx (distinct 3)
  done

let cnu_chain ~controls =
  if controls < 2 then invalid_arg "Bench_circuits.cnu_chain: need at least 2 controls";
  let n = (2 * controls) - 1 in
  let target = n - 1 in
  let anc i = controls + i in
  build n @@ fun add ->
  if controls = 2 then add Gate.Ccx [ 0; 1; target ]
  else begin
    (* AND the first controls-1 inputs down a serial ancilla chain, apply the
       final Toffoli with the last control, then uncompute. *)
    add Gate.Ccx [ 0; 1; anc 0 ];
    for i = 2 to controls - 2 do
      add Gate.Ccx [ anc (i - 2); i; anc (i - 1) ]
    done;
    add Gate.Ccx [ anc (controls - 3); controls - 1; target ];
    for i = controls - 2 downto 2 do
      add Gate.Ccx [ anc (i - 2); i; anc (i - 1) ]
    done;
    add Gate.Ccx [ 0; 1; anc 0 ]
  end

let grover ~address_bits ~marked ~iterations =
  if address_bits < 2 then invalid_arg "Bench_circuits.grover: need at least 2 bits";
  if marked < 0 || marked >= 1 lsl address_bits then
    invalid_arg "Bench_circuits.grover: marked value out of range";
  let m = address_bits in
  let n = (2 * m) - 1 in
  let idx i = i and anc i = m + i in
  let top_anc = anc (m - 2) in
  build n @@ fun add ->
  let and_chain () =
    add Gate.Ccx [ idx 0; idx 1; anc 0 ];
    for i = 2 to m - 1 do
      add Gate.Ccx [ anc (i - 2); idx i; anc (i - 1) ]
    done
  in
  let unand_chain () =
    for i = m - 1 downto 2 do
      add Gate.Ccx [ anc (i - 2); idx i; anc (i - 1) ]
    done;
    add Gate.Ccx [ idx 0; idx 1; anc 0 ]
  in
  let phase_flip_when_all_ones () =
    and_chain ();
    add Gate.Z [ top_anc ];
    unand_chain ()
  in
  (* Prepare the uniform superposition. *)
  for i = 0 to m - 1 do
    add Gate.H [ idx i ]
  done;
  for _ = 1 to iterations do
    (* Oracle: phase-flip the marked string. *)
    for i = 0 to m - 1 do
      if marked land (1 lsl (m - 1 - i)) = 0 then add Gate.X [ idx i ]
    done;
    phase_flip_when_all_ones ();
    for i = 0 to m - 1 do
      if marked land (1 lsl (m - 1 - i)) = 0 then add Gate.X [ idx i ]
    done;
    (* Diffusion about the mean. *)
    for i = 0 to m - 1 do
      add Gate.H [ idx i ];
      add Gate.X [ idx i ]
    done;
    phase_flip_when_all_ones ();
    for i = 0 to m - 1 do
      add Gate.X [ idx i ];
      add Gate.H [ idx i ]
    done
  done

let bernstein_vazirani ~n ~secret =
  if n < 2 then invalid_arg "Bench_circuits.bernstein_vazirani";
  if secret < 0 || secret >= 1 lsl (n - 1) then
    invalid_arg "Bench_circuits.bernstein_vazirani: secret out of range";
  let phase = n - 1 in
  build n @@ fun add ->
  add Gate.X [ phase ];
  for i = 0 to n - 1 do
    add Gate.H [ i ]
  done;
  for i = 0 to n - 2 do
    if secret land (1 lsl (n - 2 - i)) <> 0 then add Gate.Cx [ i; phase ]
  done;
  for i = 0 to n - 1 do
    add Gate.H [ i ]
  done

let by_total_qubits family total =
  if total < 5 then invalid_arg "Bench_circuits.by_total_qubits: need at least 5 qubits";
  match family with
  | Cnu -> cnu ~controls:((total + 1) / 2)
  | Cuccaro -> cuccaro ~bits:((total - 2) / 2)
  | Qram ->
    (* One address bit per doubling of cells, rest memory. *)
    let rec pick k = if k + (1 lsl k) + 1 <= total then pick (k + 1) else k - 1 in
    let k = max 1 (pick 1) in
    let cells = min (total - k - 1) (1 lsl k) in
    qram ~address_bits:k ~cells
  | Select ->
    let index_bits = if total >= 11 then 3 else 2 in
    let system = total - ((2 * index_bits) - 1) in
    select ~index_bits ~system ~selections:[ 1; (1 lsl index_bits) - 1 ] ~seed:7
