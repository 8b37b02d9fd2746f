(** Bridging (short) faults: a defect wiring two nets together, modeled
    as wired-AND or wired-OR.  The paper's motivation says at-speed
    functional patterns catch real defects like shorts better than their
    stuck-at numbers suggest; this module measures how a test set does
    against a bridging fault population. *)

module N = Netlist
module L = Sim.Logic3

type kind = Wired_and | Wired_or

type t = {
  b_net1 : int;
  b_net2 : int;
  b_kind : kind;
}

let to_string c b =
  Printf.sprintf "bridge(%s net%d, net%d)%s%s"
    (match b.b_kind with Wired_and -> "AND" | Wired_or -> "OR")
    b.b_net1 b.b_net2
    (if c.N.origin.(b.b_net1) = "" then ""
     else "@" ^ c.N.origin.(b.b_net1))
    (if c.N.origin.(b.b_net2) = c.N.origin.(b.b_net1) then ""
     else "/" ^ c.N.origin.(b.b_net2))

(** [candidates ?within ~rng ~count c] draws a random bridging-fault
    population over the live nets (optionally inside one instance):
    pairs of distinct nets, alternating wired-AND/wired-OR.  Real flows
    take pairs from layout proximity; a random population over the same
    region is the standard stand-in when no layout exists. *)
let candidates ?within ~rng ~count c =
  let sites = Array.of_list (Fault.sites ?within c) in
  let n = Array.length sites in
  if n < 2 then []
  else
    List.init count (fun i ->
        let a = sites.(Random.State.int rng n) in
        let rec other () =
          let b = sites.(Random.State.int rng n) in
          if b = a then other () else b
        in
        { b_net1 = a;
          b_net2 = other ();
          b_kind = (if i mod 2 = 0 then Wired_and else Wired_or) })

(* Simulate one test against up to [Fsim.columns] bridges
   (parallel-fault): after a net's value is computed, columns carrying a
   bridge on it see the wired combination with the partner's value.  Each frame is evaluated
   twice so the topologically earlier net also sees its partner — two
   relaxation passes settle exactly for pairs that do not feed back
   through each other. *)
let run_batch c ~observe bridges (test : Pattern.test) =
  assert (List.length bridges <= Fsim.columns);
  (* a fresh simulator: the first pass of frame 0 reads X from partners
     that come later in the evaluation order *)
  let sim = Sim.Eval.create c in
  let hooked = Array.make (N.num_nets c) false in
  (* per net: (column, partner, kind) *)
  let table = Hashtbl.create 64 in
  List.iteri
    (fun i b ->
      hooked.(b.b_net1) <- true;
      hooked.(b.b_net2) <- true;
      Hashtbl.add table b.b_net1 (i + 1, b.b_net2, b.b_kind);
      Hashtbl.add table b.b_net2 (i + 1, b.b_net1, b.b_kind))
    bridges;
  let at net v =
    List.fold_left
      (fun v (col, partner, kind) ->
        let own = L.get v col in
        let bridged =
          match (kind, own, L.get (Sim.Eval.value sim partner) col) with
          | (_, None, _) | (_, _, None) -> own
          | (Wired_and, Some a, Some b) -> Some (a && b)
          | (Wired_or, Some a, Some b) -> Some (a || b)
        in
        L.set v col bridged)
      v (Hashtbl.find_all table net)
  in
  Fsim.simulate ~hook:{ Sim.Eval.hooked; at } ~passes:2 sim ~observe test

(** [coverage c ~observe ~bridges tests] = percentage of the bridging
    population detected by the test set. *)
let coverage c ~observe ~bridges tests =
  Fsim.batch_coverage ~simulate_batch:(run_batch c ~observe) bridges tests
