(** PODEM test generation over a time-frame-expanded sequential circuit.
    The circuit is unrolled for a fixed number of frames; flip-flops chain
    frame state, frame-0 state is X except for PIER registers, which act
    as loadable pseudo primary inputs; PIER next-state at the last frame
    is observable (storable).  The fault is present in every frame. *)

module N = Netlist
module L = Sim.Logic3

type outcome =
  | Detected of Pattern.test
  | Exhausted  (** search space exhausted at this unrolling depth *)
  | Aborted    (** backtrack limit reached *)

type config = {
  frames : int;
  backtrack_limit : int;
  piers : int list;  (** loadable/storable flip-flop indices *)
  seed : int;        (** randomizes tie-breaks; vary it across restarts *)
}

let default_config = { frames = 1; backtrack_limit = 100; piers = []; seed = 0 }

(* The unrolled circuit is simulated on {!Sim.Eval}: lane 0 of every
   {!Sim.Logic3} word is the good machine, lane 1 the faulty one.  An
   input is numbered [f * npis + i] for primary input [i] in frame [f],
   and [frames * npis + s] for the PIER in slot [s]. *)
type model = {
  c : N.t;
  cfg : config;
  nets : int;
  npis : int;
  sim : Sim.Eval.t;
  hook : Sim.Eval.hook;   (* forces lane 1 to the stuck value at the site *)
  slot : int array;       (* per flip-flop: its PIER slot, or -1 *)
  pis : L.t array array;  (* per frame: the assigned primary inputs *)
  loads : L.t array;      (* per PIER slot: the assigned load *)
  hi : int array;         (* frames * nets: the frames' planes *)
  lo : int array;
  observe : int array;    (* observation points, as offsets into hi/lo *)
  controllable : bool array;
  cost0 : int array;      (* frames * nets: SCOAP-like 0-controllability *)
  cost1 : int array;
  dist : int array;       (* per net, static distance to an observation *)
  fault : Fault.t;
  rng : Random.State.t;
  mutable backtracks : int;
}

let idx m f net = (f * m.nets) + net

(* ------------------------------------------------------------------ *)
(* Static analyses.                                                    *)
(* ------------------------------------------------------------------ *)

let compute_controllable c cfg order slot =
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
            if f = 0 then slot.(i) >= 0
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

let compute_costs c cfg order slot =
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
            if f = 0 then if slot.(i) >= 0 then (1, 1) else (big, big)
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
let compute_dist c order slot =
  let nets = N.num_nets c in
  let inf = max_int / 2 in
  let dist = Array.make nets inf in
  Array.iter (fun po -> dist.(po) <- 0) c.N.pos;
  Array.iteri (fun i d -> if slot.(i) >= 0 then dist.(d) <- 0) c.N.ff_d;
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
(* Good and faulty machines: lanes 0 and 1 of the frames' planes.      *)
(* ------------------------------------------------------------------ *)

let simulate m =
  let sim = m.sim in
  Sim.Eval.reset_state sim;
  Array.iteri
    (fun i s -> if s >= 0 then Sim.Eval.set_state sim i m.loads.(s))
    m.slot;
  for f = 0 to m.cfg.frames - 1 do
    Sim.Eval.eval ~hook:m.hook sim m.pis.(f);
    Array.blit sim.Sim.Eval.hi 0 m.hi (f * m.nets) m.nets;
    Array.blit sim.Sim.Eval.lo 0 m.lo (f * m.nets) m.nets;
    Sim.Eval.tick sim
  done

(* Bit tests on the planes at offset [k] = [idx m f net]. *)
let good_x m k = (m.hi.(k) lor m.lo.(k)) land 1 = 0

(* Is the good value known and equal to [v]? *)
let good_is m k v = (if v then m.hi.(k) else m.lo.(k)) land 1 <> 0

(* Is there a D (good/faulty binary and different) at [k]? *)
let d_at m k =
  let h = m.hi.(k) and l = m.lo.(k) in
  ((h land (l lsr 1)) lor (l land (h lsr 1))) land 1 <> 0

let composite_x m k = (m.hi.(k) lor m.lo.(k)) land 3 <> 3

let detected m = Array.exists (d_at m) m.observe

(* ------------------------------------------------------------------ *)
(* Objective selection.                                                *)
(* ------------------------------------------------------------------ *)

let has_d m f net = d_at m (idx m f net)

(* D-frontier: gates with an X output and at least one D input. *)
let d_frontier m =
  let result = ref [] in
  for f = 0 to m.cfg.frames - 1 do
    Array.iter
      (fun net ->
        match m.c.N.drv.(net) with
        | N.Pi _ | N.Ff _ | N.C0 | N.C1 -> ()
        | d ->
          if composite_x m (idx m f net)
             && List.exists (fun i -> has_d m f i) (N.fanins d)
          then result := (f, net) :: !result)
      m.sim.Sim.Eval.order
  done;
  !result

(* For a frontier gate, the objective that helps the D through. *)
let propagation_objective m (f, net) =
  let x_ctl i = good_x m (idx m f i) && m.controllable.(idx m f i) in
  let first_x v d =
    match List.filter x_ctl (N.fanins d) with
    | i :: _ -> Some (f, i, v)
    | [] -> None
  in
  match m.c.N.drv.(net) with
  | N.G2 ((N.And | N.Nand), _, _) as d -> first_x true d
  | N.G2 ((N.Or | N.Nor | N.Xor | N.Xnor), _, _) as d -> first_x false d
  | N.Mux (s, a, b) ->
    let known i = not (good_x m (idx m f i)) in
    let one i = good_is m (idx m f i) true in
    if has_d m f s then begin
      (* the fault effect sits on the select: the two data inputs must
         carry different values for it to show at the output *)
      if known a && x_ctl b then Some (f, b, not (one a))
      else if known b && x_ctl a then Some (f, a, not (one b))
      else if x_ctl a then Some (f, a, false)
      else if x_ctl b then Some (f, b, true)
      else None
    end
    else if has_d m f a then
      (* route branch a through: select must be 0 *)
      (if x_ctl s then Some (f, s, false) else None)
    else if has_d m f b then
      (if x_ctl s then Some (f, s, true) else None)
    else None
  | _ -> None

let activation_objective m =
  let site = m.fault.Fault.f_net in
  let rec go f =
    if f >= m.cfg.frames then None
    else if good_x m (idx m f site) && m.controllable.(idx m f site) then
      Some (f, site, not m.fault.Fault.f_stuck)
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

(* [backtrace m f net v] follows the objective "net = v in frame f" to
   an unassigned input; it returns the input's number and value. *)
let rec backtrace m f net v =
  let ctl i = m.controllable.(idx m f i) in
  let gx i = good_x m (idx m f i) in
  let gis i v = good_is m (idx m f i) v in
  (* a small random jitter on costs diversifies restarts with a
     different seed, escaping reconvergence pathologies *)
  let cost want i =
    let base = (if want then m.cost1 else m.cost0).(idx m f i) in
    if base >= big then base else base + Random.State.int m.rng 3
  in
  (* among X controllable inputs, the cheapest (or costliest) to justify
     toward [want] *)
  let pick_by sel want candidates =
    let xs = List.filter (fun i -> gx i && ctl i) candidates in
    match xs with
    | [] -> None
    | first :: rest ->
      let better a b = if sel (cost want a) (cost want b) then a else b in
      Some (List.fold_left better first rest)
  in
  let easiest = pick_by ( < ) and hardest = pick_by ( > ) in
  let via v = function Some i -> backtrace m f i v | None -> None in
  match m.c.N.drv.(net) with
  | N.Pi i -> Some ((f * m.npis) + i, v)
  | N.Ff i ->
    if f > 0 then backtrace m (f - 1) m.c.N.ff_d.(i) v
    else if m.slot.(i) >= 0 then
      Some ((m.cfg.frames * m.npis) + m.slot.(i), v)
    else None
  | N.C0 | N.C1 -> None
  | N.G1 (N.Inv, a) -> backtrace m f a (not v)
  | N.G1 (N.Buff, a) -> backtrace m f a v
  | N.G2 (kind, a, b) ->
    let v = match kind with N.Nand | N.Nor -> not v | _ -> v in
    (match kind with
     | N.And | N.Nand ->
       (* output 1 needs every input: take the hardest first so failure
          surfaces early; output 0 needs any input: take the easiest *)
       via v (if v then hardest true [ a; b ] else easiest false [ a; b ])
     | N.Or | N.Nor ->
       via v (if v then easiest true [ a; b ] else hardest false [ a; b ])
     | N.Xor | N.Xnor ->
       let v = if kind = N.Xnor then not v else v in
       if not (gx a) then backtrace m f b (v <> gis a true)
       else if not (gx b) then backtrace m f a (v <> gis b true)
       else via v (easiest v [ a; b ]))
  | N.Mux (s, a, b) ->
    if gis s false then backtrace m f a v
    else if gis s true then backtrace m f b v
    else if gis a v && ctl s then backtrace m f s false
    else if gis b v && ctl s then backtrace m f s true
    else if ctl s then begin
      (* steer the select toward the branch where [v] is cheaper *)
      let ca = if gx a && ctl a then cost v a else big in
      let cb = if gx b && ctl b then cost v b else big in
      if ca = big && cb = big then None
      else backtrace m f s (ca > cb)
    end
    else via v (easiest v [ a; b ])

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)
(* ------------------------------------------------------------------ *)

type decision = {
  d_input : int;
  mutable d_flipped : bool;
}

let input m k =
  let n = m.cfg.frames * m.npis in
  if k < n then m.pis.(k / m.npis).(k mod m.npis) else m.loads.(k - n)

let assign m k v =
  let n = m.cfg.frames * m.npis in
  if k < n then m.pis.(k / m.npis).(k mod m.npis) <- v
  else m.loads.(k - n) <- v

(* Unassigned primary inputs are 0 in the test; unassigned PIERs are
   not loaded. *)
let extract_test m =
  { Pattern.p_vectors = Array.map (Array.map (fun v -> L.get v 0 = Some true)) m.pis;
    p_loads =
      List.filter_map
        (fun i -> Option.map (fun b -> (i, b)) (L.get m.loads.(m.slot.(i)) 0))
        m.cfg.piers }

let make_model c cfg fault =
  let nets = N.num_nets c and npis = N.num_pis c in
  let sim = Sim.Eval.create c in
  let order = sim.Sim.Eval.order in
  let slot = Array.make (N.num_ffs c) (-1) in
  List.iteri (fun s i -> slot.(i) <- s) cfg.piers;
  let hooked = Array.make nets false in
  hooked.(fault.Fault.f_net) <- true;
  let at _ v = L.set v 1 (Some fault.Fault.f_stuck) in
  (* the POs of every frame, then the PIERs' next state at the last *)
  let last = (cfg.frames - 1) * nets in
  let observe =
    Array.concat
      (List.init cfg.frames (fun f -> Array.map (( + ) (f * nets)) c.N.pos)
       @ [ Array.of_list
             (List.filter_map
                (fun i -> if slot.(i) >= 0 then Some (last + c.N.ff_d.(i)) else None)
                (List.init (N.num_ffs c) Fun.id)) ])
  in
  let (cost0, cost1) = compute_costs c cfg order slot in
  { c; cfg; nets; npis; sim; hook = { Sim.Eval.hooked; at }; slot;
    pis = Array.init cfg.frames (fun _ -> Array.make npis L.x);
    loads = Array.make (List.length cfg.piers) L.x;
    hi = Array.make (cfg.frames * nets) 0;
    lo = Array.make (cfg.frames * nets) 0;
    observe;
    controllable = compute_controllable c cfg order slot;
    cost0; cost1;
    dist = compute_dist c order slot;
    fault;
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
         | Some (k, v) ->
           incr decisions;
           assign m k (if v then L.one else L.zero);
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
            assign m d.d_input L.x;
            stack := rest;
            pop ()
          end
          else begin
            d.d_flipped <- true;
            assign m d.d_input (L.v_not (input m d.d_input));
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
