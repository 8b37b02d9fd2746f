(** Levelized compiled simulation of a gate-level netlist: a word of
    {!Logic3} lanes in parallel, three-valued, with sequential stepping
    for clocked designs.  Values live in dual-rail planes of native ints,
    so a sweep allocates nothing per gate. *)

module N = Netlist
module L = Logic3

type t = {
  circuit : N.t;
  order : int array;            (** topological evaluation order *)
  hi : int array;               (** per net: lanes known 1 *)
  lo : int array;               (** per net: lanes known 0 *)
  st_hi : int array;            (** per flip-flop: lanes known 1 *)
  st_lo : int array;            (** per flip-flop: lanes known 0 *)
}

(* A per-net injection hook: [at net v] receives the value just computed
   for a net flagged in [hooked] and returns the value the net takes. *)
type hook = {
  hooked : bool array;
  at : int -> L.t -> L.t;
}

(** [create c] builds a simulator with all flip-flops initialized to X. *)
let create circuit =
  let n = N.num_nets circuit and nff = N.num_ffs circuit in
  { circuit;
    order = (N.analysis circuit).N.Analysis.order;
    hi = Array.make n 0;
    lo = Array.make n 0;
    st_hi = Array.make nff 0;
    st_lo = Array.make nff 0 }

let fill_state sim h l =
  Array.fill sim.st_hi 0 (Array.length sim.st_hi) h;
  Array.fill sim.st_lo 0 (Array.length sim.st_lo) l

let reset_state sim = fill_state sim 0 0

(** Force every flip-flop to zero (reference-model comparisons). *)
let zero_state sim = fill_state sim 0 (-1)

let set_state sim ff (v : L.t) =
  sim.st_hi.(ff) <- v.L.hi;
  sim.st_lo.(ff) <- v.L.lo

(* The three-valued gate rule: store a net's value from its fanins'. *)
let[@inline] gate sim (pis : L.t array) net =
  let h = sim.hi and l = sim.lo in
  match sim.circuit.N.drv.(net) with
  | N.Pi i -> h.(net) <- pis.(i).L.hi; l.(net) <- pis.(i).L.lo
  | N.Ff i -> h.(net) <- sim.st_hi.(i); l.(net) <- sim.st_lo.(i)
  | N.C0 -> h.(net) <- 0; l.(net) <- -1
  | N.C1 -> h.(net) <- -1; l.(net) <- 0
  | N.G1 (N.Inv, a) -> h.(net) <- l.(a); l.(net) <- h.(a)
  | N.G1 (N.Buff, a) -> h.(net) <- h.(a); l.(net) <- l.(a)
  | N.G2 (N.And, a, b) ->
    h.(net) <- h.(a) land h.(b);
    l.(net) <- l.(a) lor l.(b)
  | N.G2 (N.Or, a, b) ->
    h.(net) <- h.(a) lor h.(b);
    l.(net) <- l.(a) land l.(b)
  | N.G2 (N.Xor, a, b) ->
    h.(net) <- (h.(a) land l.(b)) lor (l.(a) land h.(b));
    l.(net) <- (h.(a) land h.(b)) lor (l.(a) land l.(b))
  | N.G2 (N.Nand, a, b) ->
    h.(net) <- l.(a) lor l.(b);
    l.(net) <- h.(a) land h.(b)
  | N.G2 (N.Nor, a, b) ->
    h.(net) <- l.(a) land l.(b);
    l.(net) <- h.(a) lor h.(b)
  | N.G2 (N.Xnor, a, b) ->
    h.(net) <- (h.(a) land h.(b)) lor (l.(a) land l.(b));
    l.(net) <- (h.(a) land l.(b)) lor (l.(a) land h.(b))
  | N.Mux (s, a, b) ->
    h.(net) <- (h.(s) land h.(b)) lor (l.(s) land h.(a)) lor (h.(a) land h.(b));
    l.(net) <- (h.(s) land l.(b)) lor (l.(s) land l.(a)) lor (l.(a) land l.(b))

(** Current value of a net (after [eval]). *)
let value sim net = { L.hi = sim.hi.(net); lo = sim.lo.(net) }

(** Evaluate combinational logic for the given PI values (one word per
    primary input), passing every hooked net's value through the
    hook. *)
let eval ?hook sim (pis : L.t array) =
  let order = sim.order in
  match hook with
  | None ->
    for k = 0 to Array.length order - 1 do
      gate sim pis order.(k)
    done
  | Some h ->
    for k = 0 to Array.length order - 1 do
      let net = order.(k) in
      gate sim pis net;
      if h.hooked.(net) then begin
        let v = h.at net (value sim net) in
        sim.hi.(net) <- v.L.hi;
        sim.lo.(net) <- v.L.lo
      end
    done

(** Values observed at the primary outputs. *)
let outputs sim = Array.map (value sim) sim.circuit.N.pos

(** Advance one clock cycle in place: capture every flip-flop's d
    input. *)
let tick sim =
  Array.iteri
    (fun i d ->
      sim.st_hi.(i) <- sim.hi.(d);
      sim.st_lo.(i) <- sim.lo.(d))
    sim.circuit.N.ff_d

(** Apply one input vector and advance the clock; returns the PO values
    seen before the clock edge. *)
let step sim pis =
  eval sim pis;
  let pos = outputs sim in
  tick sim;
  pos

(* ------------------------------------------------------------------ *)
(* Convenience: integer-valued single-pattern interface.                *)
(* ------------------------------------------------------------------ *)

(** Build PI values from a list of (name, value) pairs over multi-bit
    port names ("a" covering nets named "a[0]", "a[1]", ...).  Missing
    inputs are X. *)
let pi_of_ports c (bindings : (string * int) list) =
  let values = Array.make (N.num_pis c) L.x in
  Array.iteri
    (fun i name ->
      let (base, bit) =
        match String.index_opt name '[' with
        | None -> (name, 0)
        | Some k ->
          let base = String.sub name 0 k in
          let bit =
            int_of_string (String.sub name (k + 1) (String.length name - k - 2))
          in
          (base, bit)
      in
      match List.assoc_opt base bindings with
      | None -> ()
      | Some v ->
        values.(i) <- (if (v asr bit) land 1 = 1 then L.one else L.zero))
    c.N.pi_names;
  values

(** Read a multi-bit output port as an integer; [None] if any bit is X
    (uses pattern 0). *)
let po_as_int sim base =
  let c = sim.circuit in
  let result = ref 0 in
  let any = ref false in
  let ok = ref true in
  Array.iteri
    (fun i name ->
      let matches =
        String.equal name base
        || String.length name > String.length base
           && String.sub name 0 (String.length base) = base
           && name.[String.length base] = '['
      in
      if matches then begin
        any := true;
        let bit =
          if String.equal name base then 0
          else
            int_of_string
              (String.sub name
                 (String.length base + 1)
                 (String.length name - String.length base - 2))
        in
        match L.get (value sim c.N.pos.(i)) 0 with
        | Some true -> result := !result lor (1 lsl bit)
        | Some false -> ()
        | None -> ok := false
      end)
    c.N.po_names;
  if !any && !ok then Some !result else None
