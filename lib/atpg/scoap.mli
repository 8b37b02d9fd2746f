(** SCOAP-style testability measures: 0/1 controllability and
    observability per net, with a sequential penalty per flip-flop
    crossing. *)

(** Saturating "infinite" cost: structurally impossible. *)
val infinite : int

type t = {
  sc_cc0 : int array;  (** per net: cost of setting it to 0 *)
  sc_cc1 : int array;  (** per net: cost of setting it to 1 *)
  sc_co : int array;   (** per net: cost of observing it at a PO *)
}

(** The cost at a flip-flop's output, one cycle after its d input cost
    the given amount (the sequential penalty). *)
val cross_ff : int -> int

(** [gate_cc cc0 cc1 off drv] = the (0, 1) controllability of a net
    driven by [drv], anything but a flip-flop; fanin [a]'s costs are
    [cc0.(off + a)] and [cc1.(off + a)], so a time-frame-expanded caller
    can keep every frame in one array.  The one per-gate rule shared by
    {!compute} and {!Podem}'s backtrace costs.
    @raise Invalid_argument on a flip-flop driver. *)
val gate_cc : int array -> int array -> int -> Netlist.driver -> int * int

(** Run both analyses to their fixpoints. *)
val compute : Netlist.t -> t

(** Cost of provoking and observing one fault. *)
val fault_cost : t -> Fault.t -> int

(** The [n] hardest finite faults plus every structurally untestable one,
    hardest first, with their costs. *)
val rank_faults : t -> Fault.t list -> n:int -> (Fault.t * int) list

type summary = {
  su_nets : int;
  su_uncontrollable : int;
  su_unobservable : int;
  su_max_finite_cost : int;
}

(** Aggregate over the live nets of an instance subtree ([within]) or the
    whole netlist. *)
val summarize : ?within:string -> Netlist.t -> t -> summary
