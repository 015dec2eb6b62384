(** Structured diagnostics for the Waltz static checker, the resource
    certifier ([waltz_analysis]) and the concurrency sanitizer.

    Every finding carries an LLVM-style rule id (e.g. ["OCC02"]), a severity,
    an optional op index into [Physical.ops] (program order — or a gate index
    into the logical circuit for CIR*/STAB*/LIVE* findings; [None] only for
    genuinely program-level findings), an optional machine-applicable fix
    suggestion, and a human-readable message. *)

type severity = Error | Warning | Info

type t = {
  rule : string;
  severity : severity;
  op_index : int option;
  message : string;
  fix : string option;
      (** machine-applicable fix suggestion (e.g. "drop gates 3 and 7") *)
}

val make : ?op_index:int -> ?fix:string -> rule:string -> severity:severity -> string -> t

val error : ?op_index:int -> ?fix:string -> string -> string -> t
(** [error rule message]. *)

val warning : ?op_index:int -> ?fix:string -> string -> string -> t

val info : ?op_index:int -> ?fix:string -> string -> string -> t

val severity_label : severity -> string

val pp : Format.formatter -> t -> unit

(** {1 Reports} *)

type report = {
  diagnostics : t list;  (** pass order, then program order within a pass *)
  ops_checked : int;
  passes_run : string list;
}

val error_count : report -> int

val warning_count : report -> int

val is_clean : report -> bool
(** No [Error]-severity diagnostics ([Warning] and [Info] allowed). *)

val errors : report -> t list

val with_rule : string -> report -> t list
(** All diagnostics carrying the given rule id. *)

val pp_report : Format.formatter -> report -> unit

val report_to_string : report -> string
