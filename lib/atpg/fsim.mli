(** Sequential fault simulation behind three interchangeable engines
    with bit-identical detection flags:

    - [Packed] (default): PPSFP — up to [Sim.Packed.width] test patterns
      ride the lanes of a native word, the good circuit is simulated
      once per word, and each fault is event-driven through the word
      with two-mask injection.
    - [Event]: parallel-fault — bit column 0 of a {!Sim.Logic3} word
      carries the good circuit, columns 1..63 one faulty circuit each,
      one test at a time.
    - [Reference]: the straight-line oracle — every net re-evaluated on
      every frame ({!run_batch_reference}); differential-testing and
      benchmark baseline.

    Flip-flops start at X except loaded PIER registers, so detection is
    exactly as conservative as chip-level pattern translation
    requires.

    Every run entry point takes an optional {!Engine.Budget} token and
    degrades gracefully when it dies: the engines stop sweeping (outer
    loops poll the clock per word/test/batch, the per-fault sweep is one
    atomic load) and return the {e partial} flags accumulated so far —
    missing work reads as "not detected", never as a wrong positive. *)

type observe = {
  ob_pos : bool;           (** observe primary outputs every cycle *)
  ob_pier_ffs : int list;  (** flip-flops whose final state is observable *)
}

val default_observe : observe

(** {1 Engine selection} *)

(** Every run entry point takes [?engine]; [Packed] is the default, the
    others are differential oracles and baselines. *)
type engine_kind = Packed | Event | Reference

(** {1 Three-valued parallel-fault simulation}

    One {!Sim.Logic3} word per net: column 0 carries the good circuit,
    columns 1..63 one faulty circuit each, injected through a
    {!Sim.Eval.hook}.  The reference oracle below and the other fault
    models ({!Transition}, {!Bridge}, {!Simgen}) all simulate this
    way. *)

(** [simulate ?hook ?passes ?on_frame sim ~observe test] applies [test]
    to [sim]: flip-flops start at X except the PIER loads, each frame is
    evaluated [passes] times (default 1) through [hook], [on_frame f]
    runs once frame [f] has settled (before the clock edge), the POs are
    observed every frame and the PIER state after the last frame.
    Returns the mask of columns (other than 0) that provably differed
    from column 0 at an observation point. *)
val simulate :
  ?hook:Sim.Eval.hook -> ?passes:int -> ?on_frame:(int -> unit) ->
  Sim.Eval.t -> observe:observe -> Pattern.test -> int64

(** [batch_coverage ~simulate_batch items tests] = percentage of [items]
    detected by [tests].  Each test is simulated against the items it
    has not yet detected, in batches of at most 63:
    [simulate_batch batch test] must carry the [k]-th item of [batch] in
    column [k + 1] and return the {!simulate} mask. *)
val batch_coverage :
  simulate_batch:('a list -> Pattern.test -> int64) -> 'a list ->
  Pattern.test list -> float

(** [run_batch_reference c ~faults ~observe test] simulates one test
    against at most 63 stuck-at faults by straight-line evaluation of
    every net on every frame; the result aligns with [faults]. *)
val run_batch_reference :
  Netlist.t -> faults:Fault.t list -> observe:observe -> Pattern.test ->
  bool list

(** [run_test ?jobs c ~observe ~faults ~active test] simulates one test
    against [faults.(i)] for each [i] in [active]; the result aligns
    with [active].  A single test offers only one pattern lane, so
    [Packed] falls back to the event-driven engine here (already 63
    faults per word); [~engine:Reference] forces the oracle.

    [jobs] (default 1) shards the active faults over the global domain
    pool through {!Engine.Shard}: disjoint contiguous slices, one
    injection state each, shared immutable circuit and analysis.  The
    flags are bit-identical at every [jobs]; under 128 active faults,
    or under [Reference], there is one shard. *)
val run_test :
  ?engine:engine_kind -> ?budget:Engine.Budget.t -> ?jobs:int ->
  Netlist.t -> observe:observe -> faults:Fault.t array -> active:int array ->
  Pattern.test -> bool array

(** [run ?jobs c ~observe ~faults tests] fault-simulates every test with
    fault dropping; per-fault detection flags align with [faults].  All
    three engines return bit-identical flags: detection of a fault by a
    test never depends on other faults or tests, so packing tests into
    word lanes (and dropping at word granularity) changes evaluation
    counts only.

    [jobs] (default 1) shards the faults over the global domain pool,
    bit-identically at every [jobs].  Packed: the word-sized pattern
    chunks stay sequential (fault dropping between words is preserved)
    and each word's active faults are sharded against one shared good
    simulation.  Event: contiguous fault shards with local dropping.
    Under 128 faults, or under [Reference], there is one shard. *)
val run :
  ?engine:engine_kind -> ?budget:Engine.Budget.t -> ?jobs:int ->
  Netlist.t -> observe:observe -> faults:Fault.t list -> Pattern.test list ->
  bool array

(** [run_matrix c ~observe ~faults ~active tests] is the full detection
    matrix without fault dropping: one signature per index in [active],
    one byte per test ([1] = detected).  Under the packed engine the
    whole matrix costs one good simulation plus one sweep per fault per
    word-sized test chunk; Compact and Diagnose read their answers
    straight out of it. *)
val run_matrix :
  ?engine:engine_kind -> ?budget:Engine.Budget.t ->
  Netlist.t -> observe:observe -> faults:Fault.t array -> active:int array ->
  Pattern.test array -> Bytes.t array

(** {1 Evaluation counters}

    Each engine owns its own counter in the metrics registry
    ([factor.fsim.evals] / [factor.fsim.ref_evals] /
    [factor.fsim.packed_evals]) so benchmark deltas are attributable
    per engine. *)

(** Event-driven engine net evaluations since program start. *)
val eval_count : unit -> int

(** Straight-line reference engine net evaluations since program start. *)
val ref_eval_count : unit -> int

(** Packed engine net evaluations (each settles a whole word of
    patterns) since program start. *)
val packed_eval_count : unit -> int

(** Packed words simulated (one word = up to [Sim.Packed.width] tests). *)
val packed_word_count : unit -> int

(** The eval counter of the given engine — what BENCH_fsim deltas. *)
val evals_for : engine_kind -> int
