(** Transition (gross-delay) faults: a slow gate whose output takes one
    extra clock cycle to change.  Modeled exactly as that — the faulty
    machine sees the site's previous-cycle value — so a fault is detected
    when a test launches a transition at the site and propagates the
    stale value to an observation point in the same (capture) cycle.
    At-speed functional sequences are precisely the tests that can do
    this, which is the paper's "delays" claim. *)

module N = Netlist
module L = Sim.Logic3

type t = {
  t_net : int;
  t_rise : bool;  (** slow-to-rise ([true]) or slow-to-fall *)
}

let to_string c f =
  Printf.sprintf "net%d%s/slow-to-%s" f.t_net
    (if c.N.origin.(f.t_net) = "" then "" else "@" ^ c.N.origin.(f.t_net))
    (if f.t_rise then "rise" else "fall")

(** Two faults per live site, like the stuck-at universe. *)
let all ?within c =
  List.concat_map
    (fun net -> [ { t_net = net; t_rise = true }; { t_net = net; t_rise = false } ])
    (Fault.sites ?within c)

(* Parallel-fault simulation: column 0 is the good machine; column i
   carries fault i, whose site outputs the previous cycle's good value
   whenever the faulty transition direction occurred this cycle. *)
let run_batch c ~observe faults (test : Pattern.test) =
  assert (List.length faults <= 63);
  let hooked = Array.make (N.num_nets c) false in
  let table = Hashtbl.create 16 in
  List.iteri
    (fun i f ->
      hooked.(f.t_net) <- true;
      Hashtbl.add table f.t_net (i + 1, f.t_rise))
    faults;
  (* previous-cycle good value per fault site *)
  let prev = Hashtbl.create 16 in
  let at net v =
    let good_now = L.get v 0 in
    let good_before = Hashtbl.find_opt prev net in
    Hashtbl.replace prev net good_now;
    match (good_before, good_now) with
    | (Some (Some was), Some now) when was <> now ->
      (* the slow transition: this cycle the site still shows the old
         value in the faulty machine *)
      List.fold_left
        (fun v (col, rise) -> if now = rise then L.set v col (Some was) else v)
        v (Hashtbl.find_all table net)
    | _ -> v
  in
  Fsim.simulate ~hook:{ Sim.Eval.hooked; at } (Sim.Eval.create c) ~observe
    test

(** [coverage c ~observe ~faults tests] = percentage of the transition
    faults detected by the sequences. *)
let coverage c ~observe ~faults tests =
  Fsim.batch_coverage ~simulate_batch:(run_batch c ~observe) faults tests
