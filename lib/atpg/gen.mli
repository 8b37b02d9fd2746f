(** The test-generation engine: a saturating random phase, deterministic
    PODEM with iterative frame deepening and randomized restarts, and a
    simulation-based fallback for aborted faults — the stand-in for the
    commercial sequential ATPG tool of the paper.

    The deterministic phases are fault-parallel: per-fault generation
    depends only on the circuit, the configuration and the fault, so a
    parallel run applies results in fault order and reproduces the
    serial run bit for bit whenever the time budgets do not bind. *)

(** Deterministic-phase engine selection.  [Podem_only] is the
    pre-SAT behaviour; [Sat_only] replaces PODEM with {!Sat.Satgen}
    miters; [Hybrid] (the default) runs PODEM and then retries every
    aborted fault with SAT, turning bounded-UNSAT answers into proven
    untestability. *)
type engine =
  | Podem_only
  | Sat_only
  | Hybrid

type config = {
  g_backtrack_limit : int;
  g_max_frames : int;        (** deepest time-frame expansion tried *)
  g_restarts : int;          (** randomized PODEM restarts per depth *)
  g_random_sequences : int;  (** random sequences per saturation batch *)
  g_random_batches : int;    (** maximum saturation batches *)
  g_random_length : int;     (** frames per random sequence *)
  g_fault_budget : float;    (** wall seconds per fault *)
  g_total_budget : float;    (** wall seconds for the whole run *)
  g_piers : int list;        (** loadable/storable flip-flop indices *)
  g_simgen_fallback : bool;  (** rescue aborted faults with {!Simgen} *)
  g_engine : engine;
  g_sat_conflicts : int;     (** SAT conflict limit per fault and depth *)
  g_seed : int;
  g_jobs : int;              (** 1 = serial (default); 0 = width of the
                                 global {!Engine.Pool}; [n > 1] = that
                                 many domains; results are identical
                                 at every job count *)
}

val default_config : config

type outcome =
  | Detected
  | Untestable
  | Aborted_fault    (** the engines gave up on a hard fault *)
  | Budget_skipped   (** never attempted: the total budget expired *)

type result = {
  r_total : int;
  r_detected : int;
  r_untestable : int;
  r_aborted : int;          (** hard faults the engines gave up on *)
  r_budget_skipped : int;   (** faults skipped by total-budget expiry *)
  r_coverage : float;       (** percent detected *)
  r_effectiveness : float;  (** percent detected or proven untestable *)
  r_tests : Pattern.test list;
  r_vectors : int;
  r_wall : float;           (** wall-clock seconds of this run, the same
                                measure at every job count *)
  r_outcomes : (Fault.t * outcome) list;
  r_sat_detected : int;     (** faults only the SAT engine closed *)
  r_sat_untestable : int;   (** aborted faults SAT proved untestable *)
  r_sat_time : float;       (** wall seconds inside the SAT engine *)
  r_sat_stats : Sat.Solver.stats;
}

(** [run c cfg faults] generates tests targeting [faults] on [c].

    The whole run is governed by a hierarchical {!Engine.Budget} token:
    a child of [budget] (when given) carrying [g_total_budget] as its
    deadline.  Every phase loop, queued pool task, fault simulation and
    SAT solve watches that token or a per-fault child of it, so expiry
    or a [cancel] of [budget] stops in-flight work cooperatively and
    returns partial results; faults never attempted are reported as
    [Budget_skipped]. *)
val run :
  ?budget:Engine.Budget.t -> Netlist.t -> config -> Fault.t list ->
  result
