(** SCOAP-style testability measures on a netlist: 0/1 controllability
    and observability per net, with a sequential penalty per flip-flop
    crossing.  Used to rank hard-to-test logic in testability reports and
    to sanity-check the extractor's dead-end findings numerically. *)

module N = Netlist

(** Saturating "infinite" cost: unreachable/uncontrollable. *)
let infinite = 100_000_000

type t = {
  sc_cc0 : int array;  (** per net: cost of setting it to 0 *)
  sc_cc1 : int array;  (** per net: cost of setting it to 1 *)
  sc_co : int array;   (** per net: cost of observing it at a PO *)
}

let add a b = if a >= infinite || b >= infinite then infinite else a + b
let bump a k = if a >= infinite then infinite else a + k

let seq_penalty = 20

(** The cost at a flip-flop's output, one cycle after its d input cost
    [cost]. *)
let cross_ff cost = bump cost seq_penalty

(** [gate_cc cc0 cc1 off drv] = the (0, 1) controllability of a net
    driven by [drv], anything but a flip-flop; fanin [a]'s costs are
    [cc0.(off + a)] and [cc1.(off + a)]. *)
let gate_cc cc0 cc1 off drv =
  let at0 a = cc0.(off + a) and at1 a = cc1.(off + a) in
  match drv with
  | N.Pi _ -> (1, 1)
  | N.C0 -> (0, infinite)
  | N.C1 -> (infinite, 0)
  | N.Ff _ -> invalid_arg "Scoap.gate_cc: flip-flop"
  | N.G1 (N.Inv, a) -> (bump (at1 a) 1, bump (at0 a) 1)
  | N.G1 (N.Buff, a) -> (bump (at0 a) 1, bump (at1 a) 1)
  | N.G2 (N.And, a, b) ->
    (bump (min (at0 a) (at0 b)) 1, bump (add (at1 a) (at1 b)) 1)
  | N.G2 (N.Nand, a, b) ->
    (bump (add (at1 a) (at1 b)) 1, bump (min (at0 a) (at0 b)) 1)
  | N.G2 (N.Or, a, b) ->
    (bump (add (at0 a) (at0 b)) 1, bump (min (at1 a) (at1 b)) 1)
  | N.G2 (N.Nor, a, b) ->
    (bump (min (at1 a) (at1 b)) 1, bump (add (at0 a) (at0 b)) 1)
  | N.G2 (N.Xor, a, b) ->
    (bump (min (add (at0 a) (at0 b)) (add (at1 a) (at1 b))) 1,
     bump (min (add (at0 a) (at1 b)) (add (at1 a) (at0 b))) 1)
  | N.G2 (N.Xnor, a, b) ->
    (bump (min (add (at0 a) (at1 b)) (add (at1 a) (at0 b))) 1,
     bump (min (add (at0 a) (at0 b)) (add (at1 a) (at1 b))) 1)
  | N.Mux (s, a, b) ->
    (bump (min (add (at0 s) (at0 a)) (add (at1 s) (at0 b))) 1,
     bump (min (add (at0 s) (at1 a)) (add (at1 s) (at1 b))) 1)

(* Controllability: forward fixpoint (flip-flops feed back). *)
let controllability c order =
  let n = N.num_nets c in
  let cc0 = Array.make n infinite and cc1 = Array.make n infinite in
  let changed = ref true in
  let pass () =
    Array.iter
      (fun net ->
        let (z, o) =
          match c.N.drv.(net) with
          | N.Ff i ->
            let d = c.N.ff_d.(i) in
            (cross_ff cc0.(d), cross_ff cc1.(d))
          | drv -> gate_cc cc0 cc1 0 drv
        in
        if z < cc0.(net) then begin cc0.(net) <- z; changed := true end;
        if o < cc1.(net) then begin cc1.(net) <- o; changed := true end)
      order
  in
  while !changed do
    changed := false;
    pass ()
  done;
  (cc0, cc1)

(* Observability: backward fixpoint.  Observing a gate input costs the
   gate output's observability plus setting the side inputs to
   non-masking values. *)
let observability c order cc0 cc1 =
  let n = N.num_nets c in
  let co = Array.make n infinite in
  Array.iter (fun po -> co.(po) <- 0) c.N.pos;
  let relax target cost =
    if cost < co.(target) then begin
      co.(target) <- cost;
      true
    end
    else false
  in
  let changed = ref true in
  let pass () =
    for k = Array.length order - 1 downto 0 do
      let net = order.(k) in
      let out = co.(net) in
      if out < infinite then begin
        let touched =
          match c.N.drv.(net) with
          | N.Pi _ | N.C0 | N.C1 | N.Ff _ -> false
          | N.G1 (_, a) -> relax a (bump out 1)
          | N.G2 ((N.And | N.Nand), a, b) ->
            let ta = relax a (bump (add out cc1.(b)) 1) in
            let tb = relax b (bump (add out cc1.(a)) 1) in
            ta || tb
          | N.G2 ((N.Or | N.Nor), a, b) ->
            let ta = relax a (bump (add out cc0.(b)) 1) in
            let tb = relax b (bump (add out cc0.(a)) 1) in
            ta || tb
          | N.G2 ((N.Xor | N.Xnor), a, b) ->
            let ta = relax a (bump (add out (min cc0.(b) cc1.(b))) 1) in
            let tb = relax b (bump (add out (min cc0.(a) cc1.(a))) 1) in
            ta || tb
          | N.Mux (s, a, b) ->
            (* observing a data input needs the select pointing at it;
               observing the select needs differing data *)
            let ta = relax a (bump (add out cc0.(s)) 1) in
            let tb = relax b (bump (add out cc1.(s)) 1) in
            let ts =
              relax s
                (bump
                   (add out
                      (min (add cc0.(a) cc1.(b)) (add cc1.(a) cc0.(b))))
                   1)
            in
            ta || tb || ts
        in
        if touched then changed := true
      end
    done;
    (* crossing a flip-flop: the d input is observable through q *)
    Array.iteri
      (fun i q ->
        if co.(q) < infinite then
          if relax c.N.ff_d.(i) (bump co.(q) seq_penalty) then changed := true)
      c.N.ff_q
  in
  while !changed do
    changed := false;
    pass ()
  done;
  co

(** [compute c] runs both analyses to their fixpoints. *)
let compute c =
  let order = (N.analysis c).N.Analysis.order in
  let (cc0, cc1) = controllability c order in
  let co = observability c order cc0 cc1 in
  { sc_cc0 = cc0; sc_cc1 = cc1; sc_co = co }

(** Testability of one fault: the cost of provoking and observing it
    ([infinite] when structurally impossible). *)
let fault_cost t (f : Fault.t) =
  let provoke = if f.f_stuck then t.sc_cc0.(f.f_net) else t.sc_cc1.(f.f_net) in
  add provoke t.sc_co.(f.f_net)

(** The [n] hardest (finite) faults plus every structurally untestable
    one, hardest first. *)
let rank_faults t faults ~n =
  let scored = List.map (fun f -> (f, fault_cost t f)) faults in
  let (inf, fin) = List.partition (fun (_, c) -> c >= infinite) scored in
  let fin = List.sort (fun (_, a) (_, b) -> compare b a) fin in
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  inf @ take n fin

type summary = {
  su_nets : int;
  su_uncontrollable : int;  (** nets with an infinite controllability *)
  su_unobservable : int;    (** live nets invisible at any output *)
  su_max_finite_cost : int;
}

(** [summarize ?within c t] aggregates the measures over the live nets of
    an instance subtree (or the whole netlist). *)
let summarize ?within c t =
  let sites = Fault.sites ?within c in
  let unctl = ref 0 and unobs = ref 0 and worst = ref 0 in
  List.iter
    (fun net ->
      if t.sc_cc0.(net) >= infinite || t.sc_cc1.(net) >= infinite then
        incr unctl;
      if t.sc_co.(net) >= infinite then incr unobs;
      let cost = add (max t.sc_cc0.(net) t.sc_cc1.(net)) t.sc_co.(net) in
      if cost < infinite && cost > !worst then worst := cost)
    sites;
  { su_nets = List.length sites;
    su_uncontrollable = !unctl;
    su_unobservable = !unobs;
    su_max_finite_cost = !worst }
