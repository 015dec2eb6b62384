(** Minimal self-contained JSON parsing and escaping (trace and SARIF
    validation, bench regression records). Deliberately dependency-free. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Full-document parse; rejects trailing garbage. String escapes are
    decoded to UTF-8: [\uXXXX] needs four hex digits, and a UTF-16
    surrogate half decodes to U+FFFD. *)

val escape : string -> string
(** Escapes a string for embedding inside JSON double quotes. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects. *)

val num : t -> float option

val obj_fields : t -> (string * t) list option
