(* Shared helpers for the test suites. *)
open Waltz_linalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let close ?(tol = 1e-9) msg a b =
  if Float.abs (a -. b) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg a b tol

let mat_equal ?(tol = 1e-9) msg a b =
  if not (Mat.equal ~tol a b) then
    Alcotest.failf "%s: matrices differ by %g" msg (Mat.max_abs_diff a b)

let mat_equal_phase ?(tol = 1e-9) msg a b =
  if not (Mat.equal_up_to_phase ~tol a b) then
    Alcotest.failf "%s: matrices differ (up to phase) by norm %g" msg (Mat.max_abs_diff a b)

let assert_unitary ?(tol = 1e-9) msg m =
  if not (Mat.is_unitary ~tol m) then Alcotest.failf "%s: not unitary" msg

let rng seed = Rng.make ~seed

(* Fails unless the equivalence pass decides that [compiled] computes
   [circuit]: an EQ00 skip fails like an EQ01 or EQ02 finding. *)
let assert_equivalent label circuit compiled =
  match Waltz_verify.Equivalence.check circuit compiled with
  | [] -> ()
  | diags ->
    Alcotest.failf "%s: %s" label
      (String.concat "; " (List.map (Format.asprintf "%a" Waltz_verify.Diagnostic.pp) diags))

let check_equivalent ?topology strategy circuit =
  assert_equivalent strategy.Waltz_core.Strategy.name circuit
    (Waltz_core.Compile.compile ?topology strategy circuit)

(* A quick case helper. *)
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Runs [f] on a freshly spawned domain and returns its result (or
   re-raises its exception): the domain's local state, such as the
   executor's workspace and the scratch arenas, starts empty whatever ran
   before. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

(* Major-heap words allocated by the calling domain so far ([Gc.counters]
   is per domain, unlike [Gc.quick_stat], whose figures for the other
   domains lag until their next minor collection). Arrays past the minor
   heap's size limit are allocated there directly. *)
let major_words () =
  let _, _, major = Gc.counters () in
  major
