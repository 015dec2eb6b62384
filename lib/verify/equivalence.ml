open Waltz_linalg
open Waltz_circuit
open Waltz_core

(* Bounded semantic equivalence (pass 6): embed random logical states into
   the device Hilbert space along [initial_map], replay the physical program
   through the ideal executor, extract along [final_map] and compare with the
   source circuit's unitary. A Haar-random probe with support on every
   eigenvector certifies equality up to global phase; several probes guard
   against accidental degeneracy. *)

let physical_dims (p : Physical.t) =
  Array.make p.Physical.device_count p.Physical.device_dim

(* Device-space basis index of a logical basis index under a placement map:
   slot 0 is the high bit of a ququart level (Encoding.encode_index). *)
let physical_index (p : Physical.t) (map : (int * int) array) logical_index =
  let n = p.Physical.n_logical in
  let levels = Array.make p.Physical.device_count 0 in
  Array.iteri
    (fun q (d, s) ->
      let bitval = (logical_index lsr (n - 1 - q)) land 1 in
      if p.Physical.device_dim = 4 then levels.(d) <- levels.(d) lor (bitval lsl (1 - s))
      else levels.(d) <- bitval)
    map;
  Array.fold_left (fun acc level -> (acc * p.Physical.device_dim) + level) 0 levels

let embed_logical (p : Physical.t) (psi : Vec.t) =
  let dims = physical_dims p in
  let v = Vec.create (Array.fold_left ( * ) 1 dims) in
  for l = 0 to Vec.dim psi - 1 do
    Vec.set v (physical_index p p.Physical.initial_map l) (Vec.get psi l)
  done;
  Waltz_sim.State.of_vec ~dims v

let extract_logical (p : Physical.t) state =
  let n = p.Physical.n_logical in
  let psi = Vec.create (1 lsl n) in
  let amps = Waltz_sim.State.amplitudes state in
  for l = 0 to (1 lsl n) - 1 do
    Vec.set psi l (Vec.get amps (physical_index p p.Physical.final_map l))
  done;
  psi

let default_max_qubits = 8
let default_max_dim = 1 lsl 16

let check ?(probes = 3) ?(seed = 2023) ?(max_qubits = default_max_qubits)
    ?(max_dim = default_max_dim) ?(tol = 1e-6) (circuit : Circuit.t) (p : Physical.t) =
  let n = p.Physical.n_logical in
  let skip reason = [ Diagnostic.info "EQ00" ("equivalence check skipped: " ^ reason) ] in
  if circuit.Circuit.n <> n then skip "qubit count mismatch (see CIR04)"
  else if n > max_qubits then
    skip (Printf.sprintf "%d qubits exceeds the %d-qubit bound" n max_qubits)
  else begin
    let log_dim =
      float_of_int p.Physical.device_count
      *. Float.log2 (float_of_int (max 2 p.Physical.device_dim))
    in
    if log_dim > Float.log2 (float_of_int max_dim) +. 1e-9 then
      skip
        (Printf.sprintf "device space 2^%.0f exceeds the 2^%.0f bound" log_dim
           (Float.log2 (float_of_int max_dim)))
    else begin
      let u = Circuit.to_unitary circuit in
      let r = Rng.make ~seed in
      let diags = ref [] in
      for k = 1 to probes do
        let psi = Vec.gaussian (fun () -> Rng.gaussian r) (1 lsl n) in
        let expected = Mat.apply u psi in
        let final = Executor.run_ideal p (embed_logical p psi) in
        let actual = extract_logical p final in
        let support = Vec.norm2 actual in
        (* Negated [<=], so that a NaN state fails both tests. *)
        if not (Float.abs (support -. 1.) <= tol) then
          diags :=
            Diagnostic.error "EQ02"
              (Printf.sprintf
                 "probe %d/%d: %.2e of the state left the computational subspace" k probes
                 (1. -. support))
            :: !diags
        else begin
          let overlap = Vec.overlap2 expected actual in
          if not (Float.abs (overlap -. 1.) <= tol) then
            diags :=
              Diagnostic.error "EQ01"
                (Printf.sprintf
                   "probe %d/%d: output overlaps the expected state by %.9f, not 1" k probes
                   overlap)
              :: !diags
        end
      done;
      List.rev !diags
    end
  end
