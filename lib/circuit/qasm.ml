let export_name = function
  | Gate.X -> "x"
  | Gate.Y -> "y"
  | Gate.Z -> "z"
  | Gate.H -> "h"
  | Gate.S -> "s"
  | Gate.Sdg -> "sdg"
  | Gate.T -> "t"
  | Gate.Tdg -> "tdg"
  | Gate.Rx _ -> "rx"
  | Gate.Ry _ -> "ry"
  | Gate.Rz _ -> "rz"
  | Gate.Phase _ -> "u1"
  | Gate.Cx -> "cx"
  | Gate.Cz -> "cz"
  | Gate.Swap -> "swap"
  | Gate.Csdg -> "csdg"
  | Gate.Ccx -> "ccx"
  | Gate.Ccz -> "ccz"
  | Gate.Cswap -> "cswap"
  | Gate.Cccx -> "c3x"
  | Gate.Cccz -> "cccz"
  | Gate.Custom (label, _) ->
    failwith (Printf.sprintf "Qasm.to_string: cannot export custom gate %s" label)

(* Appends one statement, e.g. "rz(0.5) q[1];", piecewise into [buf]: the
   angle is the only intermediate string. *)
let add_gate buf (g : Gate.t) =
  let kind = g.Gate.kind in
  Buffer.add_string buf (export_name kind);
  (match kind with
  | Gate.Rx theta | Gate.Ry theta | Gate.Rz theta | Gate.Phase theta ->
    Printf.bprintf buf "(%.17g)" theta
  | _ -> ());
  let arity = Gate.arity kind in
  let rec operands i = function
    | _ when i = arity -> ()
    | q :: rest ->
      Buffer.add_string buf (if i = 0 then " q[" else ",q[");
      Buffer.add_string buf (string_of_int q);
      Buffer.add_char buf ']';
      operands (i + 1) rest
    | [] -> invalid_arg "Qasm.to_string: gate has fewer operands than its arity"
  in
  operands 0 g.Gate.qubits;
  Buffer.add_string buf ";\n"

let prelude =
  "OPENQASM 2.0;\n\
   include \"qelib1.inc\";\n\
   gate ccz a,b,c { h c; ccx a,b,c; h c; }\n\
   gate csdg a,b { cu1(-pi/2) a,b; }\n\
   gate cccz a,b,c,d { h d; c3x a,b,c,d; h d; }\n"

let to_string (c : Circuit.t) =
  let buf = Buffer.create (String.length prelude + 16 + (24 * List.length c.Circuit.gates)) in
  Buffer.add_string buf prelude;
  Buffer.add_string buf "qreg q[";
  Buffer.add_string buf (string_of_int c.Circuit.n);
  Buffer.add_string buf "];\n";
  List.iter (add_gate buf) c.Circuit.gates;
  Buffer.contents buf

(* ---- import ---- *)

(* Angle expressions: products/quotients of numbers and [pi] with unary
   minus, e.g. "-3*pi/4". *)
let eval_angle ~located expr =
  let fail () = raise (located (Printf.sprintf "bad angle %S" expr)) in
  let expr = String.trim expr in
  let negative, expr =
    if String.length expr > 0 && expr.[0] = '-' then
      (true, String.sub expr 1 (String.length expr - 1))
    else (false, expr)
  in
  (* Split into alternating atoms and * / operators. *)
  let atoms = ref [] and ops = ref [] in
  let buf = Buffer.create 8 in
  String.iter
    (fun ch ->
      if ch = '*' || ch = '/' then begin
        atoms := Buffer.contents buf :: !atoms;
        Buffer.clear buf;
        ops := ch :: !ops
      end
      else if ch <> ' ' then Buffer.add_char buf ch)
    expr;
  atoms := Buffer.contents buf :: !atoms;
  let atoms = List.rev_map String.trim !atoms and ops = List.rev !ops in
  let value_of atom =
    match String.lowercase_ascii atom with
    | "pi" -> Float.pi
    | "" -> fail ()
    | s -> ( try float_of_string s with Failure _ -> fail ())
  in
  match atoms with
  | [] -> fail ()
  | first :: rest ->
    let v =
      List.fold_left2
        (fun acc op atom ->
          match op with
          | '*' -> acc *. value_of atom
          | '/' -> acc /. value_of atom
          | _ -> fail ())
        (value_of first) ops rest
    in
    if negative then -.v else v

let named_gates =
  [ ("x", (Gate.X, 1)); ("y", (Gate.Y, 1)); ("z", (Gate.Z, 1)); ("h", (Gate.H, 1));
    ("s", (Gate.S, 1)); ("sdg", (Gate.Sdg, 1)); ("t", (Gate.T, 1));
    ("tdg", (Gate.Tdg, 1)); ("cx", (Gate.Cx, 2)); ("cz", (Gate.Cz, 2));
    ("swap", (Gate.Swap, 2)); ("csdg", (Gate.Csdg, 2)); ("ccx", (Gate.Ccx, 3));
    ("toffoli", (Gate.Ccx, 3)); ("ccz", (Gate.Ccz, 3)); ("cswap", (Gate.Cswap, 3));
    ("fredkin", (Gate.Cswap, 3)); ("c3x", (Gate.Cccx, 4)); ("cccx", (Gate.Cccx, 4));
    ("cccz", (Gate.Cccz, 4)) ]

let rotation_gates =
  [ ("rx", fun t -> Gate.Rx t); ("ry", fun t -> Gate.Ry t); ("rz", fun t -> Gate.Rz t);
    ("u1", fun t -> Gate.Phase t); ("p", fun t -> Gate.Phase t) ]

(* 1-based line of byte [pos] of [text]. Only error paths call it, so
   parsing never counts lines. *)
let line_of text pos =
  let line = ref 1 in
  for i = 0 to min pos (String.length text) - 1 do
    if text.[i] = '\n' then incr line
  done;
  !line

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let of_string text =
  let len = String.length text in
  (* Comments and gate definitions are blanked in place rather than cut
     out, keeping every newline, so a byte offset into [clean] is one into
     [text] and names a source line. *)
  let clean = Bytes.of_string text in
  let blank i j =
    for k = i to j - 1 do
      if Bytes.get clean k <> '\n' then Bytes.set clean k ' '
    done
  in
  let located_at pos msg =
    Failure (Printf.sprintf "QASM line %d: %s" (line_of text pos) msg)
  in
  let rec strip_comments i =
    if i + 1 < len then
      if text.[i] = '/' && text.[i + 1] = '/' then begin
        let eol = Option.value ~default:len (String.index_from_opt text i '\n') in
        blank i eol;
        strip_comments eol
      end
      else strip_comments (i + 1)
  in
  strip_comments 0;
  (* Gate definitions (gate NAME … { body }) go before splitting on ';' so
     their bodies are not parsed as top-level applications. *)
  let gate_keyword_at i =
    i + 5 <= len
    && Bytes.get clean i = 'g'
    && Bytes.sub_string clean i 5 = "gate "
    && (i = 0 || match Bytes.get clean (i - 1) with ' ' | '\n' | '\t' | ';' -> true | _ -> false)
  in
  let rec strip_defs i =
    if i < len then
      if gate_keyword_at i then begin
        match Bytes.index_from_opt clean i '}' with
        | Some close ->
          blank i (close + 1);
          strip_defs (close + 1)
        | None -> raise (located_at i "unterminated gate definition")
      end
      else strip_defs (i + 1)
  in
  strip_defs 0;
  let clean = Bytes.unsafe_to_string clean in
  let n = ref 0 in
  let register = ref "" in
  let gates = ref [] in
  let parse_operands ~located s =
    String.split_on_char ',' s
    |> List.map (fun operand ->
           let operand = String.trim operand in
           let bad () = raise (located (Printf.sprintf "bad operand %S" operand)) in
           match String.index_opt operand '[' with
           | Some i
             when String.length operand > i + 1 && operand.[String.length operand - 1] = ']'
             ->
             let name = String.sub operand 0 i in
             if !register <> "" && name <> !register then
               raise (located (Printf.sprintf "unknown register %s" name));
             (match
                int_of_string_opt (String.sub operand (i + 1) (String.length operand - i - 2))
              with
             | Some q -> q
             | None -> bad ())
           | _ -> bad ())
  in
  (* One statement: [raw] is its text, [start] its byte offset. *)
  let statement start raw =
    let s = String.trim raw in
    if s = "" then ()
    else begin
      (* A statement's line is that of its first non-blank character. *)
      let located msg =
        let lead = ref 0 in
        while is_blank raw.[!lead] do
          incr lead
        done;
        located_at (start + !lead) msg
      in
      let lower = String.lowercase_ascii s in
      let starts prefix =
        String.length lower >= String.length prefix
        && String.sub lower 0 (String.length prefix) = prefix
      in
      if starts "openqasm" || starts "include" || starts "creg" || starts "barrier"
         || starts "measure" || starts "gate " || s.[0] = '{' || s.[0] = '}'
         || starts "}"
      then ()
      else if starts "qreg" then begin
        match (String.index_opt s '[', String.index_opt s ']') with
        | Some i, Some j when j > i ->
          let size = String.trim (String.sub s (i + 1) (j - i - 1)) in
          (match int_of_string_opt size with
          | Some k when k > 0 -> n := k
          | _ ->
            raise
              (located (Printf.sprintf "qreg size must be a positive integer, got %S" size)));
          let name_part = String.trim (String.sub s 4 (i - 4)) in
          register := name_part
        | _ -> raise (located "bad qreg")
      end
      else begin
        (* gate application: NAME[(angle)] operands *)
        let name_end =
          match (String.index_opt s ' ', String.index_opt s '(') with
          | Some i, Some j -> min i j
          | Some i, None -> i
          | None, Some j -> j
          | None, None -> raise (located (Printf.sprintf "bad statement %S" s))
        in
        let name = String.lowercase_ascii (String.sub s 0 name_end) in
        let rest = String.sub s name_end (String.length s - name_end) in
        let kind, operand_str =
          match List.assoc_opt name rotation_gates with
          | Some make -> begin
            match (String.index_opt rest '(', String.index_opt rest ')') with
            | Some i, Some j when j > i ->
              let theta = eval_angle ~located (String.sub rest (i + 1) (j - i - 1)) in
              (make theta, String.sub rest (j + 1) (String.length rest - j - 1))
            | _ -> raise (located (Printf.sprintf "%s needs an angle" name))
          end
          | None -> begin
            match List.assoc_opt name named_gates with
            | Some (kind, _) -> (kind, rest)
            | None -> raise (located (Printf.sprintf "unsupported gate %s" name))
          end
        in
        if !n = 0 then raise (located (Printf.sprintf "%s before any qreg declaration" name));
        let operands = parse_operands ~located operand_str in
        let gate =
          match Gate.make kind operands with
          | g -> g
          | exception Invalid_argument msg -> raise (located msg)
        in
        List.iter
          (fun q ->
            if q >= !n then
              raise
                (located
                   (Printf.sprintf "%s operand q[%d] is outside the %d-qubit register" name q
                      !n)))
          operands;
        gates := gate :: !gates
      end
    end
  in
  let rec statements start =
    if start <= len then begin
      let stop = Option.value ~default:len (String.index_from_opt clean start ';') in
      statement start (String.sub clean start (stop - start));
      statements (stop + 1)
    end
  in
  statements 0;
  if !n = 0 then failwith "QASM: no qreg declaration found";
  Circuit.of_gates ~n:!n (List.rev !gates)
