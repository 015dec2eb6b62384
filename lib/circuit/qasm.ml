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

(* ---- import: one left-to-right scan, with no copy or split of the text;
   only an error counts lines ---- *)

(* Input quoted in a message is clipped, so a hostile statement still fails
   with one short line. *)
let clip ?(max = 32) s = if String.length s <= max then s else String.sub s 0 max ^ "..."

(* Fails at the 1-based source line of byte [pos] of [text]. *)
let fail text pos msg =
  let line = ref 1 in
  for i = 0 to min pos (String.length text) - 1 do
    if text.[i] = '\n' then incr line
  done;
  failwith (Printf.sprintf "QASM line %d: %s" !line msg)

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let is_name_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

(* The end of the run of bytes from [p] on that satisfy [f]. The scanning
   loops read with [String.unsafe_get] only below a length just checked. *)
let rec span f text p =
  if p < String.length text && f (String.unsafe_get text p) then span f text (p + 1) else p

let rec name_end text p =
  if p < String.length text && is_name_char (String.unsafe_get text p) then name_end text (p + 1)
  else p

(* [text] from [p] up to a byte in [stops], trimmed and clipped. *)
let quote text p stops =
  let stop = span (fun ch -> not (String.contains stops ch)) text p in
  clip (String.trim (String.sub text p (stop - p)))

let lower_at text p len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do Bytes.unsafe_set b i (Char.lowercase_ascii text.[p + i]) done;
  Bytes.unsafe_to_string b

let comment_at text p = p + 1 < String.length text && text.[p] = '/' && text.[p + 1] = '/'

(* The first byte at or after [p] that is not a blank, a [//] comment or a
   gate definition. A definition is the word [gate] after a blank, [;] or
   [}] and before a blank, up to its first [}]; the reader does not expand
   definitions, so it skips one like a comment. *)
let rec skip text p =
  if p >= String.length text then p
  else
    match String.unsafe_get text p with
    | ' ' | '\012' | '\n' | '\r' | '\t' -> skip text (p + 1)
    | '/' when comment_at text p -> skip text (span (( <> ) '\n') text p)
    | ('g' | 'G')
      when p + 4 < String.length text
           && is_blank text.[p + 4]
           && lower_at text p 4 = "gate"
           && (p = 0 || match text.[p - 1] with ';' | '}' -> true | c -> is_blank c) ->
      skip text (close text p (p + 4) + 1)
    | _ -> p

(* The first [}] at or after [p] outside a comment; without one, the
   definition at [def] is unterminated. *)
and close text def p =
  if p >= String.length text then fail text def "unterminated gate definition"
  else
    match String.unsafe_get text p with
    | '}' -> p
    | '/' when comment_at text p -> close text def (span (( <> ) '\n') text p)
    | _ -> close text def (p + 1)

(* The [;], or the end of the text, that ends the statement around [p]. *)
let rec statement_end text p =
  let p = skip text p in
  if p >= String.length text || text.[p] = ';' then p else statement_end text (p + 1)

(* [pos] is the next byte to read, [stmt] the first byte of the statement
   being read, which locates its errors, [n] the size of [register] (0
   until its [qreg]) and [gates] the gates read, last first. *)
type cursor = { text : string; mutable pos : int; mutable stmt : int; mutable n : int;
                mutable register : string; mutable gates : Gate.t list }

let error c msg = fail c.text c.stmt msg
let at c ch = c.pos < String.length c.text && c.text.[c.pos] = ch

(* Skips blanks; true where the statement ends. *)
let at_end c =
  c.pos <- skip c.text c.pos;
  c.pos >= String.length c.text || at c ';'

(* Skips blanks, then reads [ch] if it is next. *)
let eat c ch =
  c.pos <- skip c.text c.pos;
  at c ch && (c.pos <- c.pos + 1; true)

(* Reads decimal digits onto [v]; [min_int] past [max_int]. *)
let rec digits c v =
  match if c.pos < String.length c.text then String.unsafe_get c.text c.pos else ' ' with
  | '0' .. '9' as d when v <= (max_int - (Char.code d - 48)) / 10 ->
    c.pos <- c.pos + 1;
    digits c ((10 * v) + Char.code d - 48)
  | '0' .. '9' -> min_int
  | _ -> v

(* An optional [-] and decimal digits; [min_int] if none or past [max_int]. *)
let integer c =
  let negative = eat c '-' in
  let first = c.pos in
  let v = digits c 0 in
  if c.pos = first || v = min_int then min_int else if negative then -v else v

(* A rotation's parenthesized angle: an optional [-], then atoms joined by
   [*] and [/], each [pi] or a float literal, folded left to right as
   written, e.g. [-3*pi/4]. *)
let angle c name =
  if not (eat c '(') then error c (name ^ " needs an angle");
  let first = c.pos in
  let bad () = error c (Printf.sprintf "bad angle %S" (quote c.text first ");")) in
  let negative = eat c '-' in
  let rec fold acc op =
    let a = skip c.text c.pos in
    c.pos <- span (function '*' | '/' | ')' | ';' -> false | ch -> not (is_blank ch)) c.text a;
    let v =
      match lower_at c.text a (c.pos - a) with
      | "pi" -> Float.pi
      | atom -> ( match float_of_string_opt atom with Some v -> v | None -> bad ())
    in
    let acc = if op = '*' then acc *. v else acc /. v in
    if eat c '*' then fold acc '*'
    else if eat c '/' then fold acc '/'
    else if eat c ')' then acc
    else if at_end c then error c (name ^ " needs an angle")
    else bad ()
  in
  let v = fold 1. '*' in
  if negative then -.v else v

let rec same_name text a r i =
  i = String.length r || (text.[a + i] = r.[i] && same_name text a r (i + 1))

let bad_operand c a = error c (Printf.sprintf "bad operand %S" (quote c.text a ",;"))

(* [reg[index], ...] up to the statement's end; [acc] is last first. *)
let rec operands c acc =
  let a = skip c.text c.pos in
  c.pos <- name_end c.text a;
  let stop = c.pos in
  if not (eat c '[') then bad_operand c a;
  if not (stop - a = String.length c.register && same_name c.text a c.register 0) then
    error c ("unknown register " ^ clip (String.sub c.text a (stop - a)));
  let q = integer c in
  if q = min_int || not (eat c ']') then bad_operand c a;
  if eat c ',' then operands c (q :: acc)
  else if at_end c then List.rev (q :: acc)
  else bad_operand c a

let apply c name kind =
  if c.n = 0 then error c (name ^ " before any qreg declaration");
  let qubits = operands c [] in
  let gate = try Gate.make kind qubits with Invalid_argument msg -> error c (clip ~max:120 msg) in
  let outside q = Printf.sprintf "%s operand q[%d] is outside the %d-qubit register" name q c.n in
  List.iter (fun q -> if q >= c.n then error c (outside q)) qubits;
  c.gates <- gate :: c.gates

(* [qreg name[size]], with [pos] after the keyword. *)
let declare c =
  if c.n > 0 then error c "a second qreg: the reader supports one register";
  let a = skip c.text c.pos in
  c.pos <- name_end c.text a;
  let name = String.sub c.text a (c.pos - a) in
  if name = "" || not (eat c '[') then error c "bad qreg";
  let first = c.pos in
  let size = integer c in
  if size <= 0 then
    error c
      (Printf.sprintf "qreg size must be a positive integer, got %S" (quote c.text first "];"));
  if not (eat c ']' && at_end c) then error c "bad qreg";
  c.register <- name;
  c.n <- size

(* The gate a name applies, reading a rotation's angle. *)
let kind c = function
  | "x" -> Some Gate.X | "y" -> Some Gate.Y | "z" -> Some Gate.Z | "h" -> Some Gate.H
  | "s" -> Some Gate.S | "sdg" -> Some Gate.Sdg | "t" -> Some Gate.T | "tdg" -> Some Gate.Tdg
  | "cx" -> Some Gate.Cx | "cz" -> Some Gate.Cz | "swap" -> Some Gate.Swap
  | "csdg" -> Some Gate.Csdg | "ccx" | "toffoli" -> Some Gate.Ccx | "ccz" -> Some Gate.Ccz
  | "cswap" | "fredkin" -> Some Gate.Cswap | "c3x" | "cccx" -> Some Gate.Cccx
  | "cccz" -> Some Gate.Cccz
  | "rx" as name -> Some (Gate.Rx (angle c name)) | "ry" as name -> Some (Gate.Ry (angle c name))
  | "rz" as name -> Some (Gate.Rz (angle c name))
  | ("u1" | "p") as name -> Some (Gate.Phase (angle c name))
  | _ -> None

(* Statements whose first word starts with one of these are ignored. *)
let ignored = [ "openqasm"; "include"; "creg"; "barrier"; "measure" ]

(* Reads the statement at [stmt] and leaves [pos] on the [;] that ends it,
   or at the end of the text. *)
let statement c =
  let text = c.text and start = c.stmt in
  match text.[start] with
  | ';' -> c.pos <- start
  | _ -> (
    c.pos <- name_end text start;
    let name = lower_at text start (c.pos - start) in
    match kind c name with
    | Some k -> apply c name k
    | None when String.starts_with ~prefix:"qreg" name -> c.pos <- start + 4; declare c
    | None when List.exists (fun prefix -> String.starts_with ~prefix name) ignored ->
      c.pos <- statement_end text c.pos
    | None when name = "" ->
      error c (Printf.sprintf "bad statement %S" (quote text start ";"))
    | None -> error c ("unsupported gate " ^ clip name))

let of_string text =
  let c = { text; pos = 0; stmt = 0; n = 0; register = ""; gates = [] } in
  let rec statements p =
    c.stmt <- skip text p;
    if c.stmt < String.length text then begin
      statement c;
      statements (c.pos + 1)
    end
  in
  statements 0;
  if c.n = 0 then begin
    let rec last p = if p > 0 && is_blank text.[p - 1] then last (p - 1) else p in
    fail text (last (String.length text) - 1) "no qreg declaration found"
  end;
  { Circuit.n = c.n; gates = List.rev c.gates }
