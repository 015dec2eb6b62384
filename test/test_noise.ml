open Waltz_linalg
open Waltz_noise
open Test_util

let test_pauli_set () =
  check_int "P2 size" 4 (Array.length (Noise.pauli_set ~d:2));
  check_int "P4 size" 16 (Array.length (Noise.pauli_set ~d:4));
  Array.iter (fun p -> assert_unitary "pauli" p) (Noise.pauli_set ~d:4);
  mat_equal "identity first" (Mat.identity 4) (Noise.pauli_set ~d:4).(0)

let test_draw_error () =
  let r = rng 7 in
  check_bool "p = 0 never errors" true (Noise.draw_error r ~dims:[ 2; 4 ] ~p:0. = None);
  (* p = 1 always errors with a non-identity product. *)
  for _ = 1 to 50 do
    match Noise.draw_error r ~dims:[ 2; 4 ] ~p:1. with
    | None -> Alcotest.fail "p = 1 returned no error"
    | Some factors ->
      check_int "factor per operand" 2 (List.length factors);
      let all_identity =
        List.for_all2
          (fun f d -> Mat.equal f (Mat.identity d))
          factors [ 2; 4 ]
      in
      check_bool "non-identity draw" false all_identity
  done;
  (* Mixed-radix restriction: the first factor of a [2;4] pair is 2x2. *)
  (match Noise.draw_error r ~dims:[ 2; 4 ] ~p:1. with
  | Some [ f1; f2 ] ->
    check_int "qubit factor dim" 2 f1.Mat.rows;
    check_int "ququart factor dim" 4 f2.Mat.rows
  | _ -> Alcotest.fail "unexpected draw");
  (* Empirical rate close to p. *)
  let hits = ref 0 in
  let trials = 4000 in
  for _ = 1 to trials do
    if Noise.draw_error r ~dims:[ 4 ] ~p:0.3 <> None then incr hits
  done;
  close ~tol:0.03 "error rate" 0.3 (float_of_int !hits /. float_of_int trials)

let test_damping () =
  let l = Noise.damping_lambdas Noise.default ~d:4 ~dt_ns:1000. in
  close "lambda_0 = 0" 0. l.(0);
  check_bool "higher levels decay faster" true (l.(1) < l.(2) && l.(2) < l.(3));
  (* λ_1 = 1 − exp(−1000/163450). *)
  close ~tol:1e-9 "lambda_1" (1. -. exp (-1000. /. 163450.)) l.(1);
  (* Fig. 9c knob: scaling high levels leaves level 1 alone. *)
  let scaled = { Noise.default with Noise.t1_high_scale = 3. } in
  let ls = Noise.damping_lambdas scaled ~d:4 ~dt_ns:1000. in
  close ~tol:1e-12 "level 1 unchanged" l.(1) ls.(1);
  check_bool "levels 2+ decay faster when scaled" true (ls.(2) > l.(2) && ls.(3) > l.(3))

let test_survival () =
  close "no occupancy no decay" 1.
    (Noise.decoherence_survival Noise.default ~max_level:0 ~dt_ns:1e6);
  let s1 = Noise.decoherence_survival Noise.default ~max_level:1 ~dt_ns:1000. in
  let s3 = Noise.decoherence_survival Noise.default ~max_level:3 ~dt_ns:1000. in
  check_bool "level 3 decays faster" true (s3 < s1);
  close ~tol:1e-12 "survival formula" (exp (-1000. /. 163450.)) s1

let prop_draw_uniform =
  qcheck ~count:5 "single-qudit draws cover the non-identity set"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let r = rng seed in
      let seen = Hashtbl.create 16 in
      for _ = 1 to 600 do
        match Noise.draw_error r ~dims:[ 4 ] ~p:1. with
        | Some [ f ] ->
          let key =
            String.concat ","
              (Array.to_list (Array.map (Printf.sprintf "%.3f") f.Mat.re))
          in
          Hashtbl.replace seen key ()
        | _ -> ()
      done;
      (* 15 non-identity Paulis; X^a Z^b share real parts for some pairs, so
         just require healthy coverage. *)
      Hashtbl.length seen >= 8)

(* Each field's refused values, and the model that carries one. *)
let fields =
  [ ( "t1_base_ns",
      "> 0",
      (fun v -> { Noise.default with Noise.t1_base_ns = v }),
      [ Float.nan; Float.infinity; -1.; 0. ] );
    ( "t1_high_scale",
      "> 0",
      (fun v -> { Noise.default with Noise.t1_high_scale = v }),
      [ Float.nan; Float.neg_infinity; -2.; 0. ] );
    ( "ww_error_scale",
      ">= 0",
      (fun v -> { Noise.default with Noise.ww_error_scale = v }),
      [ Float.nan; Float.infinity; -3. ] ) ]

(* Every entry point that reads a model: the trajectories and the exact
   oracle through [Executor.noise_schedule], and each EPS estimator. *)
let consumers =
  let open Waltz_core in
  let open Waltz_circuit in
  let p =
    lazy
      (Compile.compile Strategy.full_ququart
         (Circuit.of_gates ~n:3 [ Gate.make Gate.Ccx [ 0; 1; 2 ] ]))
  in
  [ ( "simulate",
      [ (fun model ->
          ignore
            (Executor.simulate
               ~config:{ Executor.default_config with Executor.model; trajectories = 2 }
               (Lazy.force p))) ] );
    ( "the exact oracle",
      [ (fun model -> ignore (Exact.simulate_exact ~model ~inputs:1 (Lazy.force p))) ] );
    ( "EPS",
      [ (fun model -> ignore (Eps.estimate ~model (Lazy.force p)));
        (fun model -> ignore (Eps.label_breakdown ~model (Lazy.force p)));
        (fun model -> ignore (Eps.device_breakdown ~model (Lazy.force p))) ] ) ]

(* A consumer refuses every bad value of the field with one
   [Invalid_argument] that names it, and takes the field's edge (a zero
   [ww_error_scale]). *)
let test_model_refused entries (field, rule, with_value, bad) () =
  List.iter
    (fun entry ->
      List.iter
        (fun v ->
          Alcotest.check_raises
            (Printf.sprintf "%s = %g" field v)
            (Invalid_argument
               (Printf.sprintf "Noise.model: %s = %g must be finite and %s" field v rule))
            (fun () -> entry (with_value v)))
        bad;
      if rule = ">= 0" then entry (with_value 0.))
    entries

let suite =
  [ case "pauli sets" test_pauli_set;
    case "draw error" test_draw_error;
    case "damping lambdas" test_damping;
    case "survival" test_survival;
    prop_draw_uniform ]
  @ List.concat_map
      (fun (consumer, entries) ->
        List.map
          (fun ((field, _, _, _) as f) ->
            case
              (Printf.sprintf "%s refuses a bad %s" consumer field)
              (test_model_refused entries f))
          fields)
      consumers
