(* Minimal self-contained JSON support: enough of a parser to validate
   exported traces, SARIF reports and bench records (strings decoded to
   UTF-8), and an escaper for the writers. No external dependencies, by
   design. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  (* With [pos] on the 'u' of a \uXXXX escape: its four hex digits as a
     code point, leaving [pos] on the last digit. *)
  let hex4 () =
    if !pos + 4 >= n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> fail "bad \\u escape"
    in
    let code = ref 0 in
    for _ = 1 to 4 do
      advance ();
      code := (!code lsl 4) lor digit s.[!pos]
    done;
    !code
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> begin
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'
        | Some '\\' -> Buffer.add_char b '\\'
        | Some '/' -> Buffer.add_char b '/'
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'u' ->
          (* A surrogate half is no code point of its own: U+FFFD. *)
          let code = hex4 () in
          Buffer.add_utf_8_uchar b (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
        | _ -> fail "bad escape");
        advance ();
        go ()
      end
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let parse_literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elems []
      end
    | Some 't' -> parse_literal "true" (Bool true)
    | Some 'f' -> parse_literal "false" (Bool false)
    | Some 'n' -> parse_literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at byte %d" !pos)
    else Ok v
  with Parse_error msg -> Error msg

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* -- accessors used by the regress / validator layers -- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let num = function Num f -> Some f | _ -> None

let obj_fields = function Obj fields -> Some fields | _ -> None
