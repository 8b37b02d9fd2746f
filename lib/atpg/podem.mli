(** PODEM test generation over a time-frame-expanded sequential circuit:
    flip-flops chain frame state, frame-0 state is X except for PIER
    registers (loadable pseudo inputs), PIER next-state at the last frame
    is observable, and the fault is present in every frame.  The
    backtrace is guided by SCOAP-like controllability costs with a
    seedable jitter for randomized restarts. *)

type outcome =
  | Detected of Pattern.test
  | Exhausted  (** search space exhausted at this unrolling depth *)
  | Aborted    (** backtrack limit or budget reached *)

type config = {
  frames : int;
  backtrack_limit : int;
  piers : int list;  (** loadable/storable flip-flop indices *)
  seed : int;        (** randomizes tie-breaks; vary across restarts *)
}

val default_config : config

(** [run c cfg fault] attempts to generate a test for [fault].  A dead
    [budget] token surfaces as [Aborted]: the decision loop loads the
    token's flag on every decision and polls the clock every 64. *)
val run : ?budget:Engine.Budget.t -> Netlist.t -> config -> Fault.t ->
  outcome
