(* Direct unit tests for the compiler's internal layers (layout state,
   initial mapping, router, physical scheduling) — the end-to-end
   equivalence tests in [Test_compiler] exercise them together; these pin
   down each piece alone. *)

open Waltz_linalg
open Waltz_circuit
open Waltz_arch
open Waltz_core
open Test_util

let mesh9 = Topology.mesh 9

let fresh_layout ?(strategy = Strategy.mixed_radix_ccz) ?(n = 4) () =
  let weights = Array.make_matrix n n 0. in
  Layout.create mesh9 strategy ~n_logical:n ~weights

(* ---- Layout ---- *)

let test_layout_place_move () =
  let l = fresh_layout () in
  Layout.place l 0 (0, 1);
  Layout.place l 1 (1, 1);
  check_bool "pos" true (Layout.pos l 0 = (0, 1));
  check_int "occupancy" 1 (Layout.occupancy l 0);
  check_bool "occupant" true (Layout.occupant l 0 1 = Some 0);
  check_bool "lone slot" true (Layout.lone_slot l 0 = Some 1);
  Layout.move l 0 (2, 1);
  check_int "source emptied" 0 (Layout.occupancy l 0);
  check_bool "moved" true (Layout.pos l 0 = (2, 1));
  (try
     Layout.move l 0 (1, 1);
     Alcotest.fail "moved onto occupied slot"
   with Invalid_argument _ -> ());
  (try
     Layout.place l 1 (3, 1);
     Alcotest.fail "double placement accepted"
   with Invalid_argument _ -> ())

let test_layout_swap () =
  let l = fresh_layout () in
  Layout.place l 0 (0, 1);
  Layout.place l 1 (1, 1);
  Layout.swap_occupants l (0, 1) (1, 1);
  check_bool "swapped a" true (Layout.pos l 0 = (1, 1));
  check_bool "swapped b" true (Layout.pos l 1 = (0, 1));
  (* Swap with an empty slot is a move. *)
  Layout.swap_occupants l (1, 1) (4, 1);
  check_bool "swap into empty" true (Layout.pos l 0 = (4, 1));
  check_int "old device empty" 0 (Layout.occupancy l 1)

let test_layout_checkpoint () =
  let l = fresh_layout () in
  Layout.place l 0 (0, 1);
  Layout.place l 1 (1, 1);
  let cp = Layout.checkpoint l in
  Layout.swap_occupants l (0, 1) (1, 1);
  Emit.swap_op l (Layout.pos l 0) (Layout.pos l 1);
  check_int "op emitted" 1 (List.length (Layout.ops l));
  Layout.restore l cp;
  check_bool "positions restored" true (Layout.pos l 0 = (0, 1));
  check_int "ops rolled back" 0 (List.length (Layout.ops l))

let test_layout_part_roles () =
  let l = fresh_layout () in
  Layout.place l 0 (0, 1);
  Layout.place l 1 (1, 1);
  Layout.place l 2 (1, 0);
  (match (Layout.part l 0).Physical.noise with
  | Physical.P2 1 -> ()
  | _ -> Alcotest.fail "lone qubit should be P2 at slot 1");
  (match (Layout.part l 1).Physical.noise with
  | Physical.P4 -> ()
  | _ -> Alcotest.fail "encoded pair should be P4");
  (match (Layout.part l 5).Physical.noise with
  | Physical.Quiet -> ()
  | _ -> Alcotest.fail "empty device should be Quiet")

let test_layout_bare_mode () =
  let l = fresh_layout ~strategy:Strategy.qubit_only () in
  check_int "2-level devices" 2 (Layout.device_dim l);
  Layout.place l 0 (0, 0);
  (try
     Layout.place l 1 (1, 1);
     Alcotest.fail "slot 1 accepted on a 2-level device"
   with Invalid_argument _ -> ())

(* ---- Mapping ---- *)

let weights_from circuit = Circuit.interaction_weights circuit

let test_mapping_all_placed () =
  let circuit = Waltz_benchmarks.Bench_circuits.cuccaro ~bits:2 in
  let n = circuit.Circuit.n in
  List.iter
    (fun strategy ->
      let devices = Compile.device_count strategy n in
      let l =
        Layout.create (Topology.mesh devices) strategy ~n_logical:n
          ~weights:(weights_from circuit)
      in
      Mapping.initial l;
      for q = 0 to n - 1 do
        check_bool "placed" true (Layout.is_placed l q)
      done;
      (* One qubit per device in bare/intermediate; at most two in packed. *)
      for d = 0 to devices - 1 do
        let max_occ = if strategy.Strategy.encoding = Strategy.Packed then 2 else 1 in
        check_bool "occupancy bound" true (Layout.occupancy l d <= max_occ)
      done)
    [ Strategy.qubit_only; Strategy.mixed_radix_ccz; Strategy.full_ququart ]

let test_mapping_center () =
  (* The heaviest-interacting qubit lands on the centre-most device. *)
  let circuit =
    Circuit.of_gates ~n:5
      [ Gate.make Gate.Cx [ 2; 0 ]; Gate.make Gate.Cx [ 2; 1 ]; Gate.make Gate.Cx [ 2; 3 ];
        Gate.make Gate.Cx [ 2; 4 ] ]
  in
  let l =
    Layout.create (Topology.mesh 5) Strategy.mixed_radix_ccz ~n_logical:5
      ~weights:(weights_from circuit)
  in
  Mapping.initial l;
  check_int "hub at centre" (Topology.center (Topology.mesh 5)) (Layout.device_of l 2)

let test_mapping_locality () =
  (* Interacting qubits end up nearby. *)
  let circuit =
    Circuit.of_gates ~n:6
      [ Gate.make Gate.Cx [ 0; 1 ]; Gate.make Gate.Cx [ 2; 3 ]; Gate.make Gate.Cx [ 4; 5 ] ]
  in
  let topo = Topology.mesh 6 in
  let l =
    Layout.create topo Strategy.mixed_radix_ccz ~n_logical:6 ~weights:(weights_from circuit)
  in
  Mapping.initial l;
  List.iter
    (fun (a, b) ->
      let d = Topology.distance topo (Layout.device_of l a) (Layout.device_of l b) in
      check_bool (Printf.sprintf "pair (%d,%d) within 2 hops" a b) true (d <= 2))
    [ (0, 1); (2, 3); (4, 5) ]

(* ---- Router ---- *)

let routed_layout () =
  let circuit = Waltz_benchmarks.Bench_circuits.cuccaro ~bits:2 in
  let l =
    Layout.create (Topology.mesh 6) Strategy.mixed_radix_ccz
      ~n_logical:circuit.Circuit.n ~weights:(weights_from circuit)
  in
  Mapping.initial l;
  l

let test_router_pair () =
  let l = routed_layout () in
  (* Force a far pair by construction: find the two most distant qubits. *)
  let topo = Layout.topology l in
  let far_pair =
    let best = ref (0, 1) and best_d = ref (-1) in
    for a = 0 to 5 do
      for b = a + 1 to 5 do
        let d = Topology.distance topo (Layout.device_of l a) (Layout.device_of l b) in
        if d > !best_d then begin
          best := (a, b);
          best_d := d
        end
      done
    done;
    !best
  in
  let a, b = far_pair in
  Router.route_pair l a b;
  check_bool "pair adjacent" true (Router.adjacent_or_same l a b)

let test_router_frozen () =
  let l = routed_layout () in
  let frozen_q = 5 in
  let before = Layout.pos l frozen_q in
  Router.route_pair l ~frozen:[ frozen_q ] 0 3;
  check_bool "frozen qubit did not move" true (Layout.pos l frozen_q = before);
  check_bool "pair adjacent" true (Router.adjacent_or_same l 0 3)

let test_router_blocked () =
  let l = routed_layout () in
  (* Route 0 next to 3 without ever entering some device. *)
  let blocked = 0 in
  if Layout.device_of l 0 <> blocked && Layout.device_of l 3 <> blocked then begin
    Router.route_adjacent_to_device l ~blocked:[ blocked ] ~frozen:[ 3 ]
      ~device:(Layout.device_of l 3) 0;
    check_bool "mover avoided blocked device" true (Layout.device_of l 0 <> blocked)
  end

let test_router_swap_counts () =
  let l = routed_layout () in
  let before = List.length (Layout.ops l) in
  Router.route_pair l 0 1;
  let emitted = List.length (Layout.ops l) - before in
  (* Routing on a 6-device mesh never needs more than a few SWAPs. *)
  check_bool "bounded swap count" true (emitted <= 4)

(* ---- Physical ---- *)

let dummy_op ?(devices = [ 0 ]) ?(dur = 100.) label =
  Physical.make_op ~label
    ~parts:
      (List.map
         (fun d -> { Physical.device = d; noise = Physical.P2 0; occ_before = 1; occ_after = 1 })
         devices)
    ~targets:(List.map (fun d -> (d, 0)) devices)
    ~gate:(Mat.identity (1 lsl List.length devices))
    ~entry:{ Waltz_qudit.Calibration.label; duration_ns = dur; fidelity = 0.99 }
    ~touches_ww:false

let test_schedule_asap () =
  let compiled =
    { Physical.strategy = Strategy.qubit_only;
      n_logical = 2;
      device_count = 3;
      device_dim = 2;
      ops =
        [ dummy_op ~devices:[ 0 ] ~dur:100. "a";
          dummy_op ~devices:[ 1 ] ~dur:50. "b";
          dummy_op ~devices:[ 0; 1 ] ~dur:30. "c";
          dummy_op ~devices:[ 2 ] ~dur:10. "d" ];
      initial_map = [| (0, 0); (1, 0) |];
      final_map = [| (0, 0); (1, 0) |];
      schedule_memo = None;
      kernel_memo = None }
  in
  let sched = Physical.schedule compiled in
  let start label = List.assoc label (List.map (fun (o, s) -> (o.Physical.label, s)) sched) in
  close "a starts at 0" 0. (start "a");
  close "b starts at 0" 0. (start "b");
  close "c waits for both" 100. (start "c");
  close "d independent" 0. (start "d");
  close "total duration" 130. (Physical.total_duration compiled)

let test_make_op_validation () =
  (try
     ignore
       (Physical.make_op ~label:"bad" ~parts:[]
          ~targets:[ (0, 0) ]
          ~gate:(Mat.identity 2)
          ~entry:Waltz_qudit.Calibration.bare_1q ~touches_ww:false);
     Alcotest.fail "target without part accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Physical.make_op ~label:"bad"
         ~parts:[ { Physical.device = 0; noise = Physical.P2 0; occ_before = 1; occ_after = 1 } ]
         ~targets:[ (0, 0) ]
         ~gate:(Mat.identity 4)
         ~entry:Waltz_qudit.Calibration.bare_1q ~touches_ww:false);
    Alcotest.fail "wrong gate dimension accepted"
  with Invalid_argument _ -> ()

let suite =
  [ case "layout place/move" test_layout_place_move;
    case "layout swap" test_layout_swap;
    case "layout checkpoint" test_layout_checkpoint;
    case "layout part roles" test_layout_part_roles;
    case "layout bare mode" test_layout_bare_mode;
    case "mapping all placed" test_mapping_all_placed;
    case "mapping center" test_mapping_center;
    case "mapping locality" test_mapping_locality;
    case "router pair" test_router_pair;
    case "router frozen" test_router_frozen;
    case "router blocked" test_router_blocked;
    case "router swap counts" test_router_swap_counts;
    case "schedule asap" test_schedule_asap;
    case "make_op validation" test_make_op_validation ]
