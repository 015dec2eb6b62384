open Waltz_core
open Waltz_noise

let op_success (op : Physical.op) =
  let err = 1. -. op.Physical.fidelity in
  let err = if op.Physical.touches_ww then err *. Noise.default.Noise.ww_error_scale else err in
  Float.max 0. (1. -. err)

let rel_close ~tol a b = Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let check (p : Physical.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let log_success, serial_ns, budget =
    List.fold_left
      (fun (log_s, serial, budget) (op : Physical.op) ->
        let s = op_success op in
        (log_s +. Float.log s, serial +. op.Physical.duration_ns, budget +. (1. -. s)))
      (0., 0., 0.) p.Physical.ops
  in
  (* The success product must reproduce the gate EPS. *)
  let eps = Eps.estimate p in
  let gate_eps = Float.exp log_success in
  if not (rel_close ~tol:1e-9 gate_eps eps.Eps.gate_eps) then
    add
      (Diagnostic.error "COST01"
         (Printf.sprintf "folded gate EPS %.12f disagrees with Eps.estimate %.12f" gate_eps
            eps.Eps.gate_eps));
  (* Serialized pulse time and error budget vs label_breakdown. *)
  let labels = Eps.label_breakdown p in
  let sum_ns = List.fold_left (fun acc (r : Eps.label_report) -> acc +. r.Eps.total_ns) 0. labels in
  let sum_budget =
    List.fold_left (fun acc (r : Eps.label_report) -> acc +. r.Eps.error_budget) 0. labels
  in
  if not (rel_close ~tol:1e-6 serial_ns sum_ns) then
    add
      (Diagnostic.error "COST01"
         (Printf.sprintf "serialized pulse time %.3f ns disagrees with label_breakdown %.3f ns"
            serial_ns sum_ns));
  if not (rel_close ~tol:1e-9 budget sum_budget) then
    add
      (Diagnostic.error "COST01"
         (Printf.sprintf "error budget %.9f disagrees with label_breakdown %.9f" budget
            sum_budget));
  let critical = Physical.total_duration p in
  add
    (Diagnostic.info "COST03"
       (Printf.sprintf
          "critical path %.1f ns (serialized %.1f ns, %.2fx parallelism); gate EPS %.6f; \
           error budget %.6f"
          critical serial_ns
          (if critical > 0. then serial_ns /. critical else 1.)
          gate_eps budget));
  List.rev !diags
