(** Levelized compiled simulation of a gate-level netlist: 64 patterns in
    parallel, three-valued, with sequential stepping. *)

type t = {
  circuit : Netlist.t;
  order : int array;
  values : Logic3.t array;
  state : Logic3.t array;
}

(** A per-net injection hook: after computing the value of a net with
    [hooked.(net)] set, {!eval} stores [at net v] instead of [v].  Fault
    models inject this way — a stuck column, a stale value, a wired
    combination with another net. *)
type hook = {
  hooked : bool array;
  at : int -> Logic3.t -> Logic3.t;
}

(** [create c] builds a simulator with all flip-flops at X. *)
val create : Netlist.t -> t

(** Return every flip-flop to X. *)
val reset_state : t -> unit

(** Force every flip-flop to zero (reference-model comparisons). *)
val zero_state : t -> unit

(** Evaluate combinational logic for the given per-PI values, passing
    each hooked net through [hook]. *)
val eval : ?hook:hook -> t -> Logic3.t array -> unit

(** Value of a net after {!eval}. *)
val value : t -> int -> Logic3.t

(** Values at the primary outputs after {!eval}. *)
val outputs : t -> Logic3.t array

(** Advance one clock cycle in place: capture every flip-flop's d
    input. *)
val tick : t -> unit

(** [step sim pis] = {!eval}, read outputs, {!tick}. *)
val step : t -> Logic3.t array -> Logic3.t array

(** Build PI values from (port name, integer) bindings over multi-bit
    ports ("a" covers "a\[0\]", "a\[1\]", ...).  Missing inputs are X. *)
val pi_of_ports : Netlist.t -> (string * int) list -> Logic3.t array

(** Read a multi-bit output port as an integer using pattern 0; [None]
    if any bit is X or the port does not exist. *)
val po_as_int : t -> string -> int option
