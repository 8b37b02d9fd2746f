(** RTL-to-gate lowering over a flattened module: bit-blasts word-level
    operators, symbolically executes always blocks, infers flip-flops for
    clocked assignments, and demand-drives from the observable outputs. *)

exception Error of string

type result = {
  circuit : Netlist.t;
  warnings : string list;  (** undriven or partially driven signals *)
}

(** [lower flat] synthesizes a flattened module into a netlist.  Primary
    inputs/outputs come from the root module's ports; every signal
    assigned in a clocked block becomes a bank of flip-flops.
    @raise Error on combinational cycles, multiple drivers, inferred
    latches, or unsupported constructs. *)
val lower : Flatten.flat -> result

(** [circuit_of ed top] flattens module [top] of an elaborated design and
    lowers it: the design-to-netlist step every flow starts from.
    Warnings are dropped; call {!lower} to see them. *)
val circuit_of : Design.Elaborate.edesign -> string -> Netlist.t
