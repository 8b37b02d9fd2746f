(** Simulation-based sequential test generation (CONTEST-style): instead
    of branch-and-bound search, a candidate sequence is evolved by
    hill-climbing on a cost function measured by concurrent good/faulty
    simulation — the number of nets on which the fault effect is visible,
    with detection as the goal.  Complements PODEM: no backtracking, no
    time-frame model, naturally handles deep sequential behaviour. *)

module N = Netlist
module L = Sim.Logic3

type config = {
  sg_pool : int;         (** candidate sequences kept per fault *)
  sg_generations : int;  (** improvement rounds per fault *)
  sg_frames : int;       (** initial sequence length *)
  sg_max_frames : int;   (** hard cap on sequence growth *)
  sg_piers : int list;
  sg_seed : int;
}

let default_config =
  { sg_pool = 8;
    sg_generations = 30;
    sg_frames = 4;
    sg_max_frames = 24;
    sg_piers = [];
    sg_seed = 1 }

(* Fitness of a sequence against one fault: simulate good (column 0)
   and faulty (column 1) machines together; score divergence, hugely
   rewarding primary-output divergence (= detection).  [sim] and [hook]
   are built once per fault and reused by every candidate. *)
let fitness sim hook observe (test : Pattern.test) =
  let values = sim.Sim.Eval.values in
  let score = ref 0 in
  (* divergence: nets where the good and faulty machines provably
     differ *)
  let count_divergent _ =
    Array.iter
      (fun v ->
        match (L.get v 0, L.get v 1) with
        | (Some a, Some b) when a <> b -> incr score
        | _ -> ())
      values
  in
  let mask = Fsim.simulate ~hook ~on_frame:count_divergent sim ~observe test in
  (!score, mask <> 0L)

(* Mutate a sequence: flip some bits, occasionally extend by a frame. *)
let mutate rng num_pis max_frames (t : Pattern.test) =
  let vectors = Array.map Array.copy t.Pattern.p_vectors in
  let frames = Array.length vectors in
  let vectors =
    if Random.State.int rng 4 = 0 && frames < max_frames then
      Array.append vectors
        [| Array.init num_pis (fun _ -> Random.State.bool rng) |]
    else vectors
  in
  let flips = 1 + Random.State.int rng 4 in
  for _ = 1 to flips do
    let f = Random.State.int rng (Array.length vectors) in
    if num_pis > 0 then begin
      let b = Random.State.int rng num_pis in
      vectors.(f).(b) <- not vectors.(f).(b)
    end
  done;
  let loads =
    List.map
      (fun (ff, v) ->
        if Random.State.int rng 8 = 0 then (ff, not v) else (ff, v))
      t.Pattern.p_loads
  in
  { Pattern.p_vectors = vectors; p_loads = loads }

(** [run c cfg fault] evolves a test for [fault]; [None] when the budget
    is exhausted without detection. *)
let run c cfg fault =
  let observe = { Fsim.ob_pos = true; ob_pier_ffs = cfg.sg_piers } in
  let sim = Sim.Eval.create c in
  (* the faulty machine (column 1) sees the stuck value at the site *)
  let hook =
    let hooked = Array.make (N.num_nets c) false in
    hooked.(fault.Fault.f_net) <- true;
    let stuck = Some fault.Fault.f_stuck in
    { Sim.Eval.hooked; at = (fun _ v -> L.set v 1 stuck) }
  in
  let rng = Random.State.make [| cfg.sg_seed; fault.Fault.f_net |] in
  let num_pis = N.num_pis c in
  let fresh () =
    Pattern.random ~rng ~num_pis ~frames:cfg.sg_frames ~piers:cfg.sg_piers
  in
  let pool = ref (List.init cfg.sg_pool (fun _ -> fresh ())) in
  let result = ref None in
  let generation = ref 0 in
  while !result = None && !generation < cfg.sg_generations do
    incr generation;
    let scored =
      List.map
        (fun t ->
          let (score, detected) = fitness sim hook observe t in
          if detected && !result = None then result := Some t;
          (score, t))
        !pool
    in
    if !result = None then begin
      (* keep the best half, refill with their mutations *)
      let ranked =
        List.sort (fun (a, _) (b, _) -> compare b a) scored |> List.map snd
      in
      let keep = max 1 (cfg.sg_pool / 2) in
      let survivors = List.filteri (fun i _ -> i < keep) ranked in
      let children =
        List.concat_map
          (fun t -> [ mutate rng num_pis cfg.sg_max_frames t ])
          survivors
      in
      let refill = cfg.sg_pool - List.length survivors - List.length children in
      pool :=
        survivors @ children @ List.init (max 0 refill) (fun _ -> fresh ())
    end
  done;
  !result

type result = {
  sr_total : int;
  sr_detected : int;
  sr_coverage : float;
  sr_tests : Pattern.test list;
  sr_time : float;
  sr_wall : float;
}

(** [campaign c cfg faults] runs the generator over a fault list with
    fault dropping through fault simulation. *)
let campaign c cfg faults =
  let t0 = Sys.time () in
  let w0 = Engine.Clock.now () in
  let observe = { Fsim.ob_pos = true; ob_pier_ffs = cfg.sg_piers } in
  let n = List.length faults in
  let fault_arr = Array.of_list faults in
  let detected = Array.make n false in
  let tests = ref [] in
  for i = 0 to n - 1 do
    if not detected.(i) then begin
      match run c cfg fault_arr.(i) with
      | Some test ->
        tests := test :: !tests;
        let rem =
          List.filteri (fun j _ -> not detected.(j))
            (Array.to_list fault_arr)
        in
        let idx =
          List.filteri (fun _ j -> not detected.(j)) (List.init n Fun.id)
        in
        let flags = Fsim.run c ~observe ~faults:rem [ test ] in
        List.iteri (fun k j -> if flags.(k) then detected.(j) <- true) idx
      | None -> ()
    end
  done;
  let hits = Array.fold_left (fun a d -> if d then a + 1 else a) 0 detected in
  { sr_total = n;
    sr_detected = hits;
    sr_coverage =
      (if n = 0 then 100.0 else 100.0 *. float_of_int hits /. float_of_int n);
    sr_tests = List.rev !tests;
    sr_time = Sys.time () -. t0;
    sr_wall = Engine.Clock.now () -. w0 }
