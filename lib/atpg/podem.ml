(** PODEM test generation over a time-frame-expanded sequential circuit.
    The circuit is unrolled for a fixed number of frames; flip-flops chain
    frame state, frame-0 state is X except for PIER registers, which act
    as loadable pseudo primary inputs; PIER next-state at the last frame
    is observable (storable).  The fault is present in every frame. *)

module N = Netlist

type v3 = V0 | V1 | VX

let v_neg = function V0 -> V1 | V1 -> V0 | VX -> VX
let v_and a b =
  match (a, b) with
  | (V0, _) | (_, V0) -> V0
  | (V1, V1) -> V1
  | _ -> VX
let v_or a b =
  match (a, b) with
  | (V1, _) | (_, V1) -> V1
  | (V0, V0) -> V0
  | _ -> VX
let v_xor a b =
  match (a, b) with
  | (VX, _) | (_, VX) -> VX
  | _ -> if a = b then V0 else V1
let v_mux s a b =
  match s with
  | V0 -> a
  | V1 -> b
  | VX -> if a = b && a <> VX then a else VX

let of_bool v = if v then V1 else V0

type outcome =
  | Detected of Pattern.test
  | Exhausted  (** search space exhausted at this unrolling depth *)
  | Aborted    (** backtrack limit reached *)

type input = In_pi of int * int  (** frame, pi index *) | In_pier of int

type config = {
  frames : int;
  backtrack_limit : int;
  piers : int list;  (** loadable/storable flip-flop indices *)
  seed : int;        (** randomizes tie-breaks; vary it across restarts *)
}

let default_config = { frames = 1; backtrack_limit = 100; piers = []; seed = 0 }

type model = {
  c : N.t;
  cfg : config;
  nets : int;
  order : int array;
  pier_set : bool array;
  good : v3 array;        (* frames * nets *)
  faulty : v3 array;
  controllable : bool array;
  cost0 : int array;      (* frames * nets: SCOAP-like 0-controllability *)
  cost1 : int array;
  dist : int array;       (* per net, static distance to an observation *)
  fault : Fault.t;
  inputs : input array;
  input_index : (input, int) Hashtbl.t;
  assignment : v3 array;
  rng : Random.State.t;
  mutable backtracks : int;
}

let idx m f net = (f * m.nets) + net

(* ------------------------------------------------------------------ *)
(* Static analyses.                                                    *)
(* ------------------------------------------------------------------ *)

let compute_controllable c cfg order pier_set =
  let nets = N.num_nets c in
  let ctl = Array.make (cfg.frames * nets) false in
  for f = 0 to cfg.frames - 1 do
    Array.iter
      (fun net ->
        let v =
          match c.N.drv.(net) with
          | N.Pi _ -> true
          | N.C0 | N.C1 -> false
          | N.Ff i ->
            if f = 0 then pier_set.(i)
            else ctl.(((f - 1) * nets) + c.N.ff_d.(i))
          | d -> List.exists (fun i -> ctl.((f * nets) + i)) (N.fanins d)
        in
        ctl.((f * nets) + net) <- v)
      order
  done;
  ctl

(* SCOAP controllability costs per (frame, net), used to steer the
   backtrace toward the easiest (or, for all-inputs objectives, hardest)
   justification.  Frame-0 state is uncontrollable except for PIERs. *)
let big = Scoap.infinite

let compute_costs c cfg order pier_set =
  let nets = N.num_nets c in
  let c0 = Array.make (cfg.frames * nets) big in
  let c1 = Array.make (cfg.frames * nets) big in
  for f = 0 to cfg.frames - 1 do
    let off = f * nets in
    Array.iter
      (fun net ->
        let (z, o) =
          match c.N.drv.(net) with
          | N.Ff i ->
            if f = 0 then if pier_set.(i) then (1, 1) else (big, big)
            else
              let d = off - nets + c.N.ff_d.(i) in
              (Scoap.cross_ff c0.(d), Scoap.cross_ff c1.(d))
          | drv -> Scoap.gate_cc c0 c1 off drv
        in
        c0.(off + net) <- z;
        c1.(off + net) <- o)
      order
  done;
  (c0, c1)

(* Distance to the nearest observation point, allowing propagation
   through flip-flops (one frame per hop). *)
let compute_dist c order pier_set =
  let nets = N.num_nets c in
  let inf = max_int / 2 in
  let dist = Array.make nets inf in
  Array.iter (fun po -> dist.(po) <- 0) c.N.pos;
  Array.iteri (fun i d -> if pier_set.(i) then dist.(d) <- 0) c.N.ff_d;
  let changed = ref true in
  while !changed do
    changed := false;
    for k = Array.length order - 1 downto 0 do
      let net = order.(k) in
      let dn = dist.(net) in
      if dn < inf then
        List.iter
          (fun fanin ->
            if dist.(fanin) > dn + 1 then begin
              dist.(fanin) <- dn + 1;
              changed := true
            end)
          (N.fanins c.N.drv.(net))
    done;
    Array.iteri
      (fun i q ->
        let d = c.N.ff_d.(i) in
        if dist.(q) < inf && dist.(d) > dist.(q) + 1 then begin
          dist.(d) <- dist.(q) + 1;
          changed := true
        end)
      c.N.ff_q
  done;
  dist

(* ------------------------------------------------------------------ *)
(* Five-valued simulation (good/faulty pair).                          *)
(* ------------------------------------------------------------------ *)

let simulate m =
  let c = m.c in
  for f = 0 to m.cfg.frames - 1 do
    Array.iter
      (fun net ->
        let at arr i = arr.(idx m f i) in
        let eval arr =
          match c.N.drv.(net) with
          | N.Pi i ->
            (match Hashtbl.find_opt m.input_index (In_pi (f, i)) with
             | Some k -> m.assignment.(k)
             | None -> VX)
          | N.Ff i ->
            if f = 0 then
              if m.pier_set.(i) then
                (match Hashtbl.find_opt m.input_index (In_pier i) with
                 | Some k -> m.assignment.(k)
                 | None -> VX)
              else VX
            else arr.(idx m (f - 1) c.N.ff_d.(i))
          | N.C0 -> V0
          | N.C1 -> V1
          | N.G1 (N.Inv, a) -> v_neg (at arr a)
          | N.G1 (N.Buff, a) -> at arr a
          | N.G2 (N.And, a, b) -> v_and (at arr a) (at arr b)
          | N.G2 (N.Or, a, b) -> v_or (at arr a) (at arr b)
          | N.G2 (N.Xor, a, b) -> v_xor (at arr a) (at arr b)
          | N.G2 (N.Nand, a, b) -> v_neg (v_and (at arr a) (at arr b))
          | N.G2 (N.Nor, a, b) -> v_neg (v_or (at arr a) (at arr b))
          | N.G2 (N.Xnor, a, b) -> v_neg (v_xor (at arr a) (at arr b))
          | N.Mux (s, a, b) -> v_mux (at arr s) (at arr a) (at arr b)
        in
        m.good.(idx m f net) <- eval m.good;
        let fv = eval m.faulty in
        m.faulty.(idx m f net) <-
          (if net = m.fault.Fault.f_net then of_bool m.fault.Fault.f_stuck
           else fv))
      m.order
  done

let observation_points m =
  let last = m.cfg.frames - 1 in
  let pos =
    List.concat_map
      (fun f -> Array.to_list (Array.map (fun po -> (f, po)) m.c.N.pos))
      (List.init m.cfg.frames Fun.id)
  in
  let piers =
    List.filter_map
      (fun i -> if m.pier_set.(i) then Some (last, m.c.N.ff_d.(i)) else None)
      (List.init (N.num_ffs m.c) Fun.id)
  in
  pos @ piers

let detected m =
  List.exists
    (fun (f, net) ->
      let g = m.good.(idx m f net) and fa = m.faulty.(idx m f net) in
      g <> VX && fa <> VX && g <> fa)
    (observation_points m)

(* ------------------------------------------------------------------ *)
(* Objective selection.                                                *)
(* ------------------------------------------------------------------ *)

(* Is there a D (good/faulty binary and different) on this node? *)
let has_d m f net =
  let g = m.good.(idx m f net) and fa = m.faulty.(idx m f net) in
  g <> VX && fa <> VX && g <> fa

let composite_x m f net =
  m.good.(idx m f net) = VX || m.faulty.(idx m f net) = VX

(* D-frontier: gates with an X output and at least one D input. *)
let d_frontier m =
  let result = ref [] in
  for f = 0 to m.cfg.frames - 1 do
    Array.iter
      (fun net ->
        match m.c.N.drv.(net) with
        | N.Pi _ | N.Ff _ | N.C0 | N.C1 -> ()
        | d ->
          if composite_x m f net
             && List.exists (fun i -> has_d m f i) (N.fanins d)
          then result := (f, net) :: !result)
      m.order
  done;
  !result

(* For a frontier gate, the objective that helps the D through. *)
let propagation_objective m (f, net) =
  let x_inputs d =
    List.filter
      (fun i -> m.good.(idx m f i) = VX && m.controllable.(idx m f i))
      (N.fanins d)
  in
  match m.c.N.drv.(net) with
  | N.G2 (N.And, _, _) | N.G2 (N.Nand, _, _) ->
    (match x_inputs m.c.N.drv.(net) with
     | i :: _ -> Some (f, i, V1)
     | [] -> None)
  | N.G2 (N.Or, _, _) | N.G2 (N.Nor, _, _) ->
    (match x_inputs m.c.N.drv.(net) with
     | i :: _ -> Some (f, i, V0)
     | [] -> None)
  | N.G2 ((N.Xor | N.Xnor), _, _) ->
    (match x_inputs m.c.N.drv.(net) with
     | i :: _ -> Some (f, i, V0)
     | [] -> None)
  | N.Mux (s, a, b) ->
    let x_ctl i = m.good.(idx m f i) = VX && m.controllable.(idx m f i) in
    let gv i = m.good.(idx m f i) in
    if has_d m f s then begin
      (* the fault effect sits on the select: the two data inputs must
         carry different values for it to show at the output *)
      if gv a <> VX && x_ctl b then Some (f, b, v_neg (gv a))
      else if gv b <> VX && x_ctl a then Some (f, a, v_neg (gv b))
      else if x_ctl a then Some (f, a, V0)
      else if x_ctl b then Some (f, b, V1)
      else None
    end
    else if has_d m f a then
      (* route branch a through: select must be 0 *)
      (if x_ctl s then Some (f, s, V0) else None)
    else if has_d m f b then
      (if x_ctl s then Some (f, s, V1) else None)
    else None
  | _ -> None

let activation_objective m =
  let site = m.fault.Fault.f_net in
  let want = v_neg (of_bool m.fault.Fault.f_stuck) in
  let rec go f =
    if f >= m.cfg.frames then None
    else if m.good.(idx m f site) = VX && m.controllable.(idx m f site) then
      Some (f, site, want)
    else go (f + 1)
  in
  go 0

let choose_objective m =
  let site = m.fault.Fault.f_net in
  let active =
    List.exists (fun f -> has_d m f site) (List.init m.cfg.frames Fun.id)
  in
  if active then begin
    let frontier = d_frontier m in
    let sorted =
      List.sort
        (fun (_, a) (_, b) -> compare m.dist.(a) m.dist.(b))
        frontier
    in
    let rec first = function
      | [] -> activation_objective m
      | g :: rest ->
        (match propagation_objective m g with
         | Some o -> Some o
         | None -> first rest)
    in
    first sorted
  end
  else activation_objective m

(* ------------------------------------------------------------------ *)
(* Backtrace.                                                          *)
(* ------------------------------------------------------------------ *)

let rec backtrace m f net v =
  let ctl i = m.controllable.(idx m f i) in
  let gval i = m.good.(idx m f i) in
  (* a small random jitter on costs diversifies restarts with a
     different seed, escaping reconvergence pathologies *)
  let cost want i =
    let base =
      match want with
      | V0 -> m.cost0.(idx m f i)
      | V1 -> m.cost1.(idx m f i)
      | VX -> big
    in
    if base >= big then base else base + Random.State.int m.rng 3
  in
  (* among X controllable inputs, the cheapest (or costliest) to justify
     toward [want] *)
  let pick_by sel want candidates =
    let xs = List.filter (fun i -> gval i = VX && ctl i) candidates in
    match xs with
    | [] -> None
    | first :: rest ->
      let better a b = if sel (cost want a) (cost want b) then a else b in
      Some (List.fold_left better first rest)
  in
  let easiest = pick_by ( < ) and hardest = pick_by ( > ) in
  match m.c.N.drv.(net) with
  | N.Pi i -> Some (In_pi (f, i), v)
  | N.Ff i ->
    if f > 0 then backtrace m (f - 1) m.c.N.ff_d.(i) v
    else if m.pier_set.(i) then Some (In_pier i, v)
    else None
  | N.C0 | N.C1 -> None
  | N.G1 (N.Inv, a) -> backtrace m f a (v_neg v)
  | N.G1 (N.Buff, a) -> backtrace m f a v
  | N.G2 (kind, a, b) ->
    let v = match kind with N.Nand | N.Nor -> v_neg v | _ -> v in
    (match kind with
     | N.And | N.Nand ->
       (* output 1 needs every input: take the hardest first so failure
          surfaces early; output 0 needs any input: take the easiest *)
       let choice = if v = V1 then hardest V1 [ a; b ] else easiest V0 [ a; b ] in
       (match choice with Some i -> backtrace m f i v | None -> None)
     | N.Or | N.Nor ->
       let choice = if v = V0 then hardest V0 [ a; b ] else easiest V1 [ a; b ] in
       (match choice with Some i -> backtrace m f i v | None -> None)
     | N.Xor | N.Xnor ->
       let v = if kind = N.Xnor then v_neg v else v in
       if gval a <> VX then backtrace m f b (v_xor v (gval a))
       else if gval b <> VX then backtrace m f a (v_xor v (gval b))
       else
         (match easiest v [ a; b ] with
          | Some i -> backtrace m f i v
          | None -> None))
  | N.Mux (s, a, b) ->
    (match gval s with
     | V0 -> backtrace m f a v
     | V1 -> backtrace m f b v
     | VX ->
       if gval a <> VX && gval a = v && ctl s then backtrace m f s V0
       else if gval b <> VX && gval b = v && ctl s then backtrace m f s V1
       else if ctl s then begin
         (* steer the select toward the branch where [v] is cheaper *)
         let ca = if gval a = VX && ctl a then cost v a else big in
         let cb = if gval b = VX && ctl b then cost v b else big in
         if ca = big && cb = big then None
         else backtrace m f s (if ca <= cb then V0 else V1)
       end
       else
         (match easiest v [ a; b ] with
          | Some i -> backtrace m f i v
          | None -> None))

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)
(* ------------------------------------------------------------------ *)

type decision = {
  d_input : int;
  mutable d_flipped : bool;
}

let extract_test m =
  let vectors =
    Array.init m.cfg.frames (fun f ->
        Array.init (N.num_pis m.c) (fun i ->
            match Hashtbl.find_opt m.input_index (In_pi (f, i)) with
            | Some k -> m.assignment.(k) = V1
            | None -> false))
  in
  let loads =
    List.filter_map
      (fun i ->
        match Hashtbl.find_opt m.input_index (In_pier i) with
        | Some k when m.assignment.(k) <> VX -> Some (i, m.assignment.(k) = V1)
        | _ -> None)
      m.cfg.piers
  in
  { Pattern.p_vectors = vectors; p_loads = loads }

let make_model c cfg fault =
  let nets = N.num_nets c in
  let order = (N.analysis c).N.Analysis.order in
  let pier_set = Array.make (max 1 (N.num_ffs c)) false in
  List.iter (fun i -> pier_set.(i) <- true) cfg.piers;
  let inputs =
    Array.of_list
      (List.concat_map
         (fun f -> List.init (N.num_pis c) (fun i -> In_pi (f, i)))
         (List.init cfg.frames Fun.id)
       @ List.map (fun i -> In_pier i) cfg.piers)
  in
  let input_index = Hashtbl.create 64 in
  Array.iteri (fun k inp -> Hashtbl.replace input_index inp k) inputs;
  let (cost0, cost1) = compute_costs c cfg order pier_set in
  { c; cfg; nets; order; pier_set;
    good = Array.make (cfg.frames * nets) VX;
    faulty = Array.make (cfg.frames * nets) VX;
    controllable = compute_controllable c cfg order pier_set;
    cost0; cost1;
    dist = compute_dist c order pier_set;
    fault; inputs; input_index;
    assignment = Array.make (Array.length inputs) VX;
    rng = Random.State.make [| cfg.seed; fault.Fault.f_net |];
    backtracks = 0 }

let m_runs = Obs.Metrics.counter "factor.podem.runs"
let m_backtracks = Obs.Metrics.counter "factor.podem.backtracks"
let m_decisions = Obs.Metrics.counter "factor.podem.decisions"
let m_detected = Obs.Metrics.counter "factor.podem.detected"
let m_exhausted = Obs.Metrics.counter "factor.podem.exhausted"
let m_aborted = Obs.Metrics.counter "factor.podem.aborted"

(** [run c cfg fault] attempts to generate a test for [fault]. *)
let run ?(budget = Engine.Budget.none) c cfg fault =
  let decisions = ref 0 in
  let m = make_model c cfg fault in
  let stack = ref [] in
  simulate m;
  let rec step () =
    (* the decision loop's budget check is one atomic load; the clock
       is consulted every 64 decisions *)
    if Engine.Budget.check budget
       || (!decisions land 63 = 0 && Engine.Budget.poll budget)
    then Aborted
    else if detected m then Detected (extract_test m)
    else
      match choose_objective m with
      | Some (f, net, v) ->
        (match backtrace m f net v with
         | Some (input, v) when v <> VX ->
           let k = Hashtbl.find m.input_index input in
           incr decisions;
           m.assignment.(k) <- v;
           stack := { d_input = k; d_flipped = false } :: !stack;
           simulate m;
           step ()
         | _ -> backtrack ())
      | None -> backtrack ()
  and backtrack () =
    m.backtracks <- m.backtracks + 1;
    if Engine.Budget.check budget then Aborted
    else if m.backtracks > m.cfg.backtrack_limit then Aborted
    else
      let rec pop () =
        match !stack with
        | [] -> Exhausted
        | d :: rest ->
          if d.d_flipped then begin
            m.assignment.(d.d_input) <- VX;
            stack := rest;
            pop ()
          end
          else begin
            d.d_flipped <- true;
            m.assignment.(d.d_input) <- v_neg m.assignment.(d.d_input);
            simulate m;
            step ()
          end
      in
      pop ()
  in
  let outcome = step () in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_backtracks m.backtracks;
  Obs.Metrics.add m_decisions !decisions;
  (match outcome with
   | Detected _ -> Obs.Metrics.incr m_detected
   | Exhausted -> Obs.Metrics.incr m_exhausted
   | Aborted ->
     Obs.Metrics.incr m_aborted;
     if Obs.Log.enabled Obs.Log.Debug then
       Obs.Log.event Obs.Log.Debug "podem.abort"
         [ ("net", Obs.Json.Int fault.Fault.f_net);
           ("stuck", Obs.Json.Bool fault.Fault.f_stuck);
           ("backtracks", Obs.Json.Int m.backtracks) ]);
  outcome
