(** Sequential fault simulation behind three interchangeable engines.

    - {b Packed} (PPSFP, the default): test patterns ride the lanes of a
      {!Sim.Logic3} word ({!Sim.Packed}, up to [Sys.int_size] patterns
      per word).  The good machine is simulated once per word and each
      fault then drains through the word on its own.
    - {b Event}: parallel-fault — one test, its good machine broadcast
      across the lanes, one fault per lane.  Used for single-test
      grading ({!run_test}), where there is only one pattern to pack.
    - {b Reference}: the straight-line oracle — every net re-evaluated
      on every frame, column 0 the good machine and one fault per other
      column.  Kept as the differential oracle ({!run_batch_reference})
      and benchmark baseline.

    Packed and Event are one engine: {!Sim.Eval} settles the good
    machine into per-frame planes, and one levelized drain ([sweep])
    re-evaluates only the nets whose value diverges from those planes,
    seeded at the injection sites (per-net lane masks) and at flip-flops
    whose faulty state differs.  They differ only in what the lanes
    carry: tests with one fault armed in all of them, or one test with a
    different fault armed in each.

    All engines share the detection semantics: flip-flops start at X
    (except loaded PIER registers), so detection is conservative exactly
    like the pattern translation the paper performs, and a fault's
    detection by a test never depends on other faults or tests — which
    is why fault dropping, sharding and word-packing are all
    bit-identical to the serial reference. *)

module N = Netlist
module A = N.Analysis
module L = Sim.Logic3
module P = Sim.Packed

type observe = {
  ob_pos : bool;        (** observe primary outputs every cycle *)
  ob_pier_ffs : int list;  (** flip-flops whose final state is observable *)
}

let default_observe = { ob_pos = true; ob_pier_ffs = [] }

(* ------------------------------------------------------------------ *)
(* Engine selection.                                                   *)
(* ------------------------------------------------------------------ *)

type engine_kind = Packed | Event | Reference

(* ------------------------------------------------------------------ *)
(* Metrics: each engine owns its own eval counter so a registry dump    *)
(* (and BENCH_fsim's [metrics] section) is attributable per engine.     *)
(* Hot loops accumulate locally and flush once per batch.               *)
(* ------------------------------------------------------------------ *)

let eval_counter = Obs.Metrics.counter "factor.fsim.evals"
let eval_count () = Obs.Metrics.value eval_counter
let add_evals k = Obs.Metrics.add eval_counter k

let ref_eval_counter = Obs.Metrics.counter "factor.fsim.ref_evals"
let ref_eval_count () = Obs.Metrics.value ref_eval_counter
let add_ref_evals k = Obs.Metrics.add ref_eval_counter k

let packed_eval_counter = Obs.Metrics.counter "factor.fsim.packed_evals"
let packed_eval_count () = Obs.Metrics.value packed_eval_counter
let add_packed_evals k = Obs.Metrics.add packed_eval_counter k

let good_sims_counter = Obs.Metrics.counter "factor.fsim.good_sims"
let batches_counter = Obs.Metrics.counter "factor.fsim.batches"

(* One packed word = up to [Sim.Packed.width] tests simulated together. *)
let packed_words_counter = Obs.Metrics.counter "factor.fsim.packed_words"
let packed_word_count () = Obs.Metrics.value packed_words_counter

(* One packed batch = one fault set swept through one word. *)
let packed_batches_counter = Obs.Metrics.counter "factor.fsim.packed_batches"

let packed_batch_hist = Obs.Metrics.histogram "factor.fsim.packed_batch_s"

let evals_for = function
  | Packed -> packed_eval_count ()
  | Event -> eval_count ()
  | Reference -> ref_eval_count ()

(* ------------------------------------------------------------------ *)
(* Driving a test through {!Sim.Eval}: the one three-valued simulation  *)
(* loop that the reference oracle and the other fault models            *)
(* (transition, bridge, simgen) share.                                  *)
(* ------------------------------------------------------------------ *)

(* Columns (other than 0) whose value provably differs from column 0. *)
let detected_mask h l =
  (if h land 1 = 1 then l else if l land 1 = 1 then h else 0) land lnot 1

(* Items per batch when column 0 carries the good machine. *)
let columns = P.width - 1

(** [simulate ?hook ?passes ?on_frame sim ~observe test] applies [test]
    to [sim]: flip-flops start at X except the PIER loads, each frame is
    evaluated [passes] times (default 1) through [hook], [on_frame f]
    runs once frame [f] has settled, the POs are observed every frame
    and the PIER state after the last.  Returns the mask of columns
    (other than 0) that differed from column 0 at an observation. *)
let simulate ?hook ?(passes = 1) ?(on_frame = ignore) sim ~observe
    (test : Pattern.test) =
  let module E = Sim.Eval in
  E.reset_state sim;
  List.iter
    (fun (ff, v) -> E.set_state sim ff (if v then L.one else L.zero))
    test.Pattern.p_loads;
  let detected = ref 0 in
  let frames = Array.length test.Pattern.p_vectors in
  for f = 0 to frames - 1 do
    let pis =
      Array.map (fun b -> if b then L.one else L.zero)
        test.Pattern.p_vectors.(f)
    in
    for _ = 1 to passes do
      E.eval ?hook sim pis
    done;
    on_frame f;
    if observe.ob_pos then
      Array.iter
        (fun po ->
          detected := !detected lor detected_mask sim.E.hi.(po) sim.E.lo.(po))
        sim.E.circuit.N.pos;
    E.tick sim;
    if f = frames - 1 then
      List.iter
        (fun ff ->
          detected :=
            !detected lor detected_mask sim.E.st_hi.(ff) sim.E.st_lo.(ff))
        observe.ob_pier_ffs
  done;
  !detected

(* Is column [k] set in [mask]? *)
let column mask k = (mask lsr k) land 1 = 1

(** [batch_coverage ~simulate_batch items tests] = percentage of [items]
    detected by [tests], each test simulated against the items it has
    not yet detected in batches of at most [columns] (item [k] of a
    batch in column [k + 1]). *)
let batch_coverage ~simulate_batch items tests =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then 100.0
  else begin
    let detected = Array.make n false in
    List.iter
      (fun test ->
        let rec batches = function
          | [] -> ()
          | l ->
            let batch = List.filteri (fun k _ -> k < columns) l in
            let mask =
              simulate_batch (List.map (fun i -> items.(i)) batch) test
            in
            List.iteri
              (fun k i -> if column mask (k + 1) then detected.(i) <- true)
              batch;
            batches (List.filteri (fun k _ -> k >= columns) l)
        in
        batches (List.filter (fun i -> not detected.(i)) (List.init n Fun.id)))
      tests;
    100.0
    *. float_of_int
         (Array.fold_left (fun a d -> if d then a + 1 else a) 0 detected)
    /. float_of_int n
  end

(* ------------------------------------------------------------------ *)
(* Reference engine: straight-line evaluation of every net.            *)
(* ------------------------------------------------------------------ *)

(* One reference batch on [sim], hooking the faults' nets in [hooked]
   (all clear on entry and again on return). *)
let reference_batch sim hooked ~faults ~observe (test : Pattern.test) =
  assert (List.length faults <= columns);
  let stuck = Hashtbl.create 64 in
  List.iteri
    (fun i (f : Fault.t) ->
      hooked.(f.f_net) <- true;
      Hashtbl.add stuck f.f_net (i + 1, f.f_stuck))
    faults;
  let at net v =
    List.fold_left
      (fun v (col, s) -> L.set v col (Some s))
      v (Hashtbl.find_all stuck net)
  in
  let mask = simulate ~hook:{ Sim.Eval.hooked; at } sim ~observe test in
  List.iter (fun (f : Fault.t) -> hooked.(f.f_net) <- false) faults;
  add_ref_evals
    (Array.length test.Pattern.p_vectors * Array.length sim.Sim.Eval.order);
  List.mapi (fun i _ -> column mask (i + 1)) faults

(** [run_batch_reference c ~faults ~observe test] simulates [test]
    against at most [columns] faults by evaluating every net on every
    frame; returns a bool list aligned with [faults] marking the
    detected ones.  The oracle the other engines are checked against. *)
let run_batch_reference c ~faults ~observe test =
  reference_batch (Sim.Eval.create c) (Array.make (N.num_nets c) false)
    ~faults ~observe test

(* One test against the faults selected by [active], in reference
   batches on one simulator; flags align with [active]. *)
let run_test_reference ?(budget = Engine.Budget.none) c ~observe
    ~(faults : Fault.t array) ~(active : int array) test =
  let sim = Sim.Eval.create c in
  let hooked = Array.make (N.num_nets c) false in
  let len = Array.length active in
  let flags = Array.make len false in
  let pos = ref 0 in
  while !pos < len && not (Engine.Budget.poll budget) do
    let k = min columns (len - !pos) in
    let start = !pos in
    let batch = List.init k (fun i -> faults.(active.(start + i))) in
    let res = reference_batch sim hooked ~faults:batch ~observe test in
    List.iteri (fun i hit -> if hit then flags.(start + i) <- true) res;
    pos := !pos + k
  done;
  flags

(* The faults a dropping run simulates next: the indices still false in
   [detected]. *)
let undetected detected =
  Array.of_list
    (List.filter (fun i -> not detected.(i))
       (List.init (Array.length detected) Fun.id))

(* Drop the faults of [active] that [flags] (aligned with it) detect. *)
let drop detected ~active flags =
  Array.iteri (fun k i -> if flags.(k) then detected.(i) <- true) active

(* Multi-test reference run with per-test fault dropping — the dropping
   semantics every engine shares. *)
let run_reference ?(budget = Engine.Budget.none) c ~observe
    ~(faults : Fault.t array) tests =
  let detected = Array.make (Array.length faults) false in
  List.iter
    (fun test ->
      let active = undetected detected in
      if Array.length active > 0 && not (Engine.Budget.poll budget) then
        drop detected ~active
          (run_test_reference ~budget c ~observe ~faults ~active test))
    tests;
  detected

(* ------------------------------------------------------------------ *)
(* The event-driven drain shared by the Packed and Event engines.       *)
(* ------------------------------------------------------------------ *)

(* The good machine of one batch: {!Sim.Eval} settles it frame by frame
   and each frame's planes are kept for the drain to diff against.
   Owned by a run and reused across its words and tests; read-only while
   faults drain, so fault shards share it. *)
type good = {
  g_sim : Sim.Eval.t;
  mutable g_hi : int array array;  (* per frame, per net *)
  mutable g_lo : int array array;
}

let make_good c = { g_sim = Sim.Eval.create c; g_hi = [||]; g_lo = [||] }

(* Simulate the good machine through batch [b]; returns the net
   evaluations spent. *)
let good_sim good (b : P.batch) =
  let sim = good.g_sim in
  let n = Array.length sim.Sim.Eval.hi in
  let frames = b.P.b_frames in
  let have = Array.length good.g_hi in
  if have < frames then begin
    let grow planes =
      Array.init frames (fun f ->
          if f < have then planes.(f) else Array.make n 0)
    in
    good.g_hi <- grow good.g_hi;
    good.g_lo <- grow good.g_lo
  end;
  Array.iteri (Sim.Eval.set_state sim) b.P.b_loads;
  for f = 0 to frames - 1 do
    Sim.Eval.eval sim b.P.b_pis.(f);
    Array.blit sim.Sim.Eval.hi 0 good.g_hi.(f) 0 n;
    Array.blit sim.Sim.Eval.lo 0 good.g_lo.(f) 0 n;
    Sim.Eval.tick sim
  done;
  frames * Array.length sim.Sim.Eval.order

(* Per-domain drain scratch: structure-of-arrays planes indexed by net,
   reused across frames, faults, tests and words.  The drain is strictly
   activity-proportional — state divergence is tracked as a list (fed by
   [ffd], a net -> flip-flop CSR), never by scanning all flip-flops, so
   a fault with a five-net cone costs a handful of ops per frame no
   matter how much state the circuit has. *)
type engine = {
  c : N.t;
  info : A.info;
  fh : int array;              (* faulty planes, valid where dirty *)
  fl : int array;
  dirty : bool array;
  queued : bool array;
  touched : int array;         (* the nets behind the dirty flags *)
  mutable touched_n : int;
  buckets : int list array;    (* event queue, bucketed by level *)
  fsh : int array;             (* faulty state, valid where sdirty *)
  fsl : int array;
  sdirty : bool array;
  sdirty_list : int array;     (* the flip-flops behind the sdirty flags *)
  mutable sdirty_n : int;
  ffd_off : int array;         (* net -> flip-flops it drives (CSR) *)
  ffd : int array;
  inj_hi : int array;          (* per net: lanes forced to 1 *)
  inj_lo : int array;          (* per net: lanes forced to 0 *)
  inj_nets : int array;        (* the nets with a nonzero mask *)
  mutable inj_n : int;
  mutable dets : int array;    (* per active fault: a word's lane mask *)
}

let make_engine c =
  let info = N.analysis c in
  let n = N.num_nets c in
  let nff = max 1 (N.num_ffs c) in
  let ffd_off = Array.make (n + 1) 0 in
  Array.iter (fun d -> ffd_off.(d + 1) <- ffd_off.(d + 1) + 1) c.N.ff_d;
  for i = 1 to n do
    ffd_off.(i) <- ffd_off.(i) + ffd_off.(i - 1)
  done;
  let ffd = Array.make nff 0 in
  let cursor = Array.copy ffd_off in
  Array.iteri
    (fun i d ->
      ffd.(cursor.(d)) <- i;
      cursor.(d) <- cursor.(d) + 1)
    c.N.ff_d;
  { c; info;
    fh = Array.make n 0;
    fl = Array.make n 0;
    dirty = Array.make n false;
    queued = Array.make n false;
    touched = Array.make n 0;
    touched_n = 0;
    buckets = Array.make (info.A.max_level + 1) [];
    fsh = Array.make nff 0;
    fsl = Array.make nff 0;
    sdirty = Array.make nff false;
    sdirty_list = Array.make nff 0;
    sdirty_n = 0;
    ffd_off;
    ffd;
    inj_hi = Array.make n 0;
    inj_lo = Array.make n 0;
    inj_nets = Array.make n 0;
    inj_n = 0;
    dets = [||] }

(* Inject fault [flt] in the lanes of [lanes]. *)
let arm eng (flt : Fault.t) lanes =
  let net = flt.Fault.f_net in
  if eng.inj_hi.(net) lor eng.inj_lo.(net) = 0 then begin
    eng.inj_nets.(eng.inj_n) <- net;
    eng.inj_n <- eng.inj_n + 1
  end;
  if flt.Fault.f_stuck then eng.inj_hi.(net) <- eng.inj_hi.(net) lor lanes
  else eng.inj_lo.(net) <- eng.inj_lo.(net) lor lanes

let disarm eng =
  for k = 0 to eng.inj_n - 1 do
    let net = eng.inj_nets.(k) in
    eng.inj_hi.(net) <- 0;
    eng.inj_lo.(net) <- 0
  done;
  eng.inj_n <- 0

(* PIER membership as a bitmap over flip-flop indices, built once per
   run so the drain never walks the pier list. *)
let pier_flags c observe =
  let a = Array.make (max 1 (N.num_ffs c)) false in
  List.iter (fun ff -> a.(ff) <- true) observe.ob_pier_ffs;
  a

(* Drain the armed faults through batch [b] against the good planes:
   every frame seeds the injection sites and the flip-flops whose faulty
   state diverged, and only nets whose value differs from the good
   planes are re-evaluated (levelized, so each net at most once per
   frame).  Nets that are not re-evaluated — PIs, constants, flip-flops
   with clean state — read the good planes; injection is
   [(v land lnot clear) lor set] with the per-net lane masks.  Returns
   the lanes that differed at an observation point: the POs of frames
   still inside the lane's own test ([b_active]), and the PIER state
   after the lane's last frame ([b_last]).  With [stop_on_detect] the
   drain ends at the first frame that detects in any lane — sound
   whenever the caller only fault-drops on the mask.  The evaluations
   are added to [counter]. *)
let sweep eng good (b : P.batch) ~observe ~piers ~stop_on_detect ~counter =
  let c = eng.c in
  let info = eng.info in
  (* clear state divergence left over from an early-exited drain *)
  for k = 0 to eng.sdirty_n - 1 do
    eng.sdirty.(eng.sdirty_list.(k)) <- false
  done;
  eng.sdirty_n <- 0;
  let detected = ref 0 in
  let evals = ref 0 in
  let fr = ref 0 in
  while !fr < b.P.b_frames && not (stop_on_detect && !detected <> 0) do
    let f = !fr in
    let gh = good.g_hi.(f) and gl = good.g_lo.(f) in
    let vh a = if eng.dirty.(a) then eng.fh.(a) else gh.(a) in
    let vl a = if eng.dirty.(a) then eng.fl.(a) else gl.(a) in
    let schedule net =
      if not eng.queued.(net) then begin
        eng.queued.(net) <- true;
        let lv = info.A.level.(net) in
        eng.buckets.(lv) <- net :: eng.buckets.(lv)
      end
    in
    for k = 0 to eng.inj_n - 1 do
      schedule eng.inj_nets.(k)
    done;
    for k = 0 to eng.sdirty_n - 1 do
      schedule c.N.ff_q.(eng.sdirty_list.(k))
    done;
    for lv = 0 to info.A.max_level do
      let rec drain = function
        | [] -> ()
        | net :: rest ->
          eng.queued.(net) <- false;
          let nh = ref 0 and nl = ref 0 in
          (match c.N.drv.(net) with
           | N.Pi _ | N.C0 | N.C1 -> nh := gh.(net); nl := gl.(net)
           | N.Ff i ->
             if eng.sdirty.(i) then begin
               nh := eng.fsh.(i);
               nl := eng.fsl.(i)
             end
             else begin
               nh := gh.(net);
               nl := gl.(net)
             end
           | N.G1 (N.Inv, a) -> nh := vl a; nl := vh a
           | N.G1 (N.Buff, a) -> nh := vh a; nl := vl a
           | N.G2 (N.And, a, b) ->
             nh := vh a land vh b;
             nl := vl a lor vl b
           | N.G2 (N.Or, a, b) ->
             nh := vh a lor vh b;
             nl := vl a land vl b
           | N.G2 (N.Xor, a, b) ->
             nh := (vh a land vl b) lor (vl a land vh b);
             nl := (vh a land vh b) lor (vl a land vl b)
           | N.G2 (N.Nand, a, b) ->
             nh := vl a lor vl b;
             nl := vh a land vh b
           | N.G2 (N.Nor, a, b) ->
             nh := vl a land vl b;
             nl := vh a lor vh b
           | N.G2 (N.Xnor, a, b) ->
             nh := (vh a land vh b) lor (vl a land vl b);
             nl := (vh a land vl b) lor (vl a land vh b)
           | N.Mux (s, a, b) ->
             nh := (vh s land vh b) lor (vl s land vh a) lor (vh a land vh b);
             nl := (vh s land vl b) lor (vl s land vl a) lor (vl a land vl b));
          let set_hi = eng.inj_hi.(net) and set_lo = eng.inj_lo.(net) in
          let keep = lnot (set_hi lor set_lo) in
          let h = (!nh land keep) lor set_hi and l = (!nl land keep) lor set_lo in
          incr evals;
          if h <> gh.(net) || l <> gl.(net) then begin
            eng.fh.(net) <- h;
            eng.fl.(net) <- l;
            eng.dirty.(net) <- true;
            eng.touched.(eng.touched_n) <- net;
            eng.touched_n <- eng.touched_n + 1;
            for k = info.A.fanout_off.(net) to info.A.fanout_off.(net + 1) - 1 do
              schedule info.A.fanout.(k)
            done
          end;
          drain rest
      in
      let bk = eng.buckets.(lv) in
      eng.buckets.(lv) <- [];
      drain bk
    done;
    if observe.ob_pos then begin
      let act = b.P.b_active.(f) in
      Array.iter
        (fun po ->
          if eng.dirty.(po) then
            detected :=
              !detected
              lor (((gh.(po) land eng.fl.(po)) lor (gl.(po) land eng.fh.(po)))
                   land act))
        c.N.pos
    end;
    (* capture next faulty state: drop last frame's divergence, then walk
       the nets that diverged this frame and mark exactly the flip-flops
       they feed *)
    for k = 0 to eng.sdirty_n - 1 do
      eng.sdirty.(eng.sdirty_list.(k)) <- false
    done;
    eng.sdirty_n <- 0;
    for k = 0 to eng.touched_n - 1 do
      let d = eng.touched.(k) in
      for j = eng.ffd_off.(d) to eng.ffd_off.(d + 1) - 1 do
        let i = eng.ffd.(j) in
        eng.fsh.(i) <- eng.fh.(d);
        eng.fsl.(i) <- eng.fl.(d);
        if not eng.sdirty.(i) then begin
          eng.sdirty.(i) <- true;
          eng.sdirty_list.(eng.sdirty_n) <- i;
          eng.sdirty_n <- eng.sdirty_n + 1
        end
      done
    done;
    (* each lane observes PIER state after its own last frame, against
       the good state its d input settled to this frame; walk the
       diverged flip-flops (few) against the pier bitmap *)
    let last = b.P.b_last.(f) in
    if last <> 0 then
      for k = 0 to eng.sdirty_n - 1 do
        let ff = eng.sdirty_list.(k) in
        if piers.(ff) then begin
          let d = c.N.ff_d.(ff) in
          detected :=
            !detected
            lor (((gh.(d) land eng.fsl.(ff)) lor (gl.(d) land eng.fsh.(ff)))
                 land last)
        end
      done;
    for k = 0 to eng.touched_n - 1 do
      eng.dirty.(eng.touched.(k)) <- false
    done;
    eng.touched_n <- 0;
    incr fr
  done;
  Obs.Metrics.add counter !evals;
  !detected land b.P.b_mask

(* ------------------------------------------------------------------ *)
(* Event engine: one test, one fault per lane.                          *)
(* ------------------------------------------------------------------ *)

(* One test applied in every lane: the good planes then hold the good
   machine for all lanes at once, and lane [k] is free to carry the
   [k]-th fault of a batch. *)
let broadcast c (test : Pattern.test) =
  let word v = if v then L.one else L.zero in
  let frames = Array.length test.Pattern.p_vectors in
  let b_loads = Array.make (N.num_ffs c) L.x in
  List.iter (fun (ff, v) -> b_loads.(ff) <- word v) test.Pattern.p_loads;
  { P.b_lanes = P.width;
    b_mask = P.mask P.width;
    b_frames = frames;
    b_active = Array.make frames (-1);
    b_last = Array.init frames (fun f -> if f = frames - 1 then -1 else 0);
    b_pis = Array.map (Array.map word) test.Pattern.p_vectors;
    b_loads }

(* One test against the faults selected by [active], one fault per lane
   in word-sized batches against a single good simulation; the flags
   align with [active]. *)
let event_test ?(budget = Engine.Budget.none) eng good c ~observe ~piers
    ~(faults : Fault.t array) ~(active : int array) test =
  let b = broadcast c test in
  Obs.Metrics.incr good_sims_counter;
  add_evals (good_sim good b);
  let len = Array.length active in
  let flags = Array.make len false in
  let pos = ref 0 in
  while !pos < len && not (Engine.Budget.poll budget) do
    Obs.Metrics.incr batches_counter;
    let k = min P.width (len - !pos) in
    for i = 0 to k - 1 do
      arm eng faults.(active.(!pos + i)) (1 lsl i)
    done;
    let det =
      sweep eng good b ~observe ~piers ~stop_on_detect:false
        ~counter:eval_counter
    in
    disarm eng;
    for i = 0 to k - 1 do
      if (det lsr i) land 1 = 1 then flags.(!pos + i) <- true
    done;
    pos := !pos + k
  done;
  flags

(* Multi-test event-driven run with per-test fault dropping. *)
let run_event ?(budget = Engine.Budget.none) c ~observe
    ~(faults : Fault.t array) tests =
  let detected = Array.make (Array.length faults) false in
  if Array.length faults > 0 then begin
    let good = make_good c and eng = make_engine c in
    let piers = pier_flags c observe in
    let prog =
      Obs.Progress.start ~total:(List.length tests) "fsim.grade"
    in
    List.iter
      (fun test ->
        Obs.Progress.step prog;
        let active = undetected detected in
        if Array.length active > 0 && not (Engine.Budget.poll budget) then
          drop detected ~active
            (event_test ~budget eng good c ~observe ~piers ~faults ~active
               test))
      tests;
    Obs.Progress.finish prog
  end;
  detected

(* ------------------------------------------------------------------ *)
(* Packed engine (PPSFP): patterns in word lanes, one fault at a time.  *)
(* ------------------------------------------------------------------ *)

let batch_of_tests c (chunk : Pattern.test array) =
  P.make_batch ~num_pis:(N.num_pis c) ~num_ffs:(N.num_ffs c)
    ~vectors:(Array.map (fun t -> t.Pattern.p_vectors) chunk)
    ~loads:(Array.map (fun t -> t.Pattern.p_loads) chunk)

(* Fault shards worth cutting [n] faults into at [jobs]: one below 128
   faults, where a shard's scratch engine and task would cost more than
   the sweeps it splits off. *)
let fault_shards ~jobs n = if n < 128 then 1 else jobs

(* Sweep the active faults through one word, observing the per-word time
   histogram and the packed-sweep span; [apply k det] receives, in
   [active] order, the index into [active] and its nonzero lane mask.
   The good planes are built once in [good] and shared read-only by
   [fault_shards] contiguous shards of [active]: the first drains on
   [eng], every other on a scratch engine of its own, and each writes
   its lane masks into its own slice of [eng.dets]. *)
let packed_word ?(budget = Engine.Budget.none) ~jobs eng good c ~observe
    ~piers ~stop_on_detect ~(faults : Fault.t array) ~(active : int array)
    (chunk : Pattern.test array) ~apply =
  let t0 = Engine.Clock.now () in
  Obs.Metrics.incr packed_batches_counter;
  let na = Array.length active in
  let shards = fault_shards ~jobs na in
  let run () =
    let b = batch_of_tests c chunk in
    Obs.Metrics.incr packed_words_counter;
    add_packed_evals (good_sim good b);
    if Array.length eng.dets < na then eng.dets <- Array.make na 0;
    let dets = eng.dets in
    let shard (start, len) =
      let eng = if start = 0 then eng else make_engine c in
      (* one atomic load per fault; the word loops poll the clock *)
      for k = start to start + len - 1 do
        dets.(k) <-
          (if Engine.Budget.check budget then 0
           else begin
             arm eng faults.(active.(k)) b.P.b_mask;
             let det =
               sweep eng good b ~observe ~piers ~stop_on_detect
                 ~counter:packed_eval_counter
             in
             disarm eng;
             det
           end)
      done
    in
    ignore
      (Engine.Shard.map ~jobs:shards shard (Engine.Shard.ranges ~shards na)
       : unit option array);
    for k = 0 to na - 1 do
      if dets.(k) <> 0 then apply k dets.(k)
    done
  in
  (if Obs.Span.enabled () then
     Obs.Span.with_ "fsim.packed"
       ~attrs:
         [ ("tests", Obs.Json.Int (Array.length chunk));
           ("faults", Obs.Json.Int na);
           ("shards", Obs.Json.Int shards) ]
       run
   else run ());
  Obs.Metrics.observe packed_batch_hist (Engine.Clock.now () -. t0)

(* Multi-test packed run: word-sized chunks of tests in order, fault
   dropping at word granularity.  Because detection of a fault by a test
   never depends on other faults or tests, the flags are bit-identical
   to the per-test-dropping reference. *)
let run_packed ?(budget = Engine.Budget.none) ~jobs c ~observe
    ~(faults : Fault.t array) tests =
  let n = Array.length faults in
  let detected = Array.make n false in
  if n > 0 then begin
    let good = make_good c and eng = make_engine c in
    let piers = pier_flags c observe in
    let tests_arr = Array.of_list tests in
    let nt = Array.length tests_arr in
    let prog =
      Obs.Progress.start ~total:((nt + P.width - 1) / P.width) "fsim.grade"
    in
    let pos = ref 0 in
    let remaining = ref n in
    while !pos < nt && !remaining > 0
          && not (Engine.Budget.poll budget) do
      let len = min P.width (nt - !pos) in
      let chunk = Array.sub tests_arr !pos len in
      pos := !pos + len;
      let active = undetected detected in
      packed_word ~budget ~jobs eng good c ~observe ~piers
        ~stop_on_detect:true ~faults ~active chunk
        ~apply:(fun k _det ->
          detected.(active.(k)) <- true;
          decr remaining);
      Obs.Progress.step prog
    done;
    Obs.Progress.finish prog
  end;
  detected

(* ------------------------------------------------------------------ *)
(* Engine dispatch.                                                    *)
(* ------------------------------------------------------------------ *)

(* Per-shard results in shard order, joined; a lone shard is returned
   as is. *)
let concat = function
  | [| part |] -> part
  | parts -> Array.concat (Array.to_list parts)

(** [run_test ?jobs c ~observe ~faults ~active test] simulates one test
    against [faults.(i)] for each [i] in [active]; the result aligns
    with [active].  A single test offers only one lane to pack, so the
    packed default falls back to the event engine (one fault per lane),
    its active faults cut into [fault_shards] contiguous shards, one
    drain engine each; [~engine:Reference] forces the straight-line
    oracle. *)
let run_test ?(engine = Packed) ?(budget = Engine.Budget.none) ?(jobs = 1)
    c ~observe ~faults ~active test =
  match engine with
  | Reference -> run_test_reference ~budget c ~observe ~faults ~active test
  | Packed | Event ->
    concat
      (Engine.Shard.map_chunks
         ~jobs:(fault_shards ~jobs (Array.length active))
         (fun active ->
           event_test ~budget (make_engine c) (make_good c) c ~observe
             ~piers:(pier_flags c observe) ~faults ~active test)
         active)

(** [run ?jobs c ~observe ~faults tests] fault-simulates every test with
    fault dropping; returns per-fault detection flags aligned with
    [faults].  All three engines produce bit-identical flags at every
    [jobs].  Packed: the word loop stays sequential (fault dropping
    between words is preserved) and [packed_word] shards each word's
    active faults.  Event: contiguous fault shards, each with its own
    dropping.  Reference: one shard. *)
let run ?(engine = Packed) ?(budget = Engine.Budget.none) ?(jobs = 1) c
    ~observe ~faults tests =
  let faults = Array.of_list faults in
  match engine with
  | Packed -> run_packed ~budget ~jobs c ~observe ~faults tests
  | Event ->
    concat
      (Engine.Shard.map_chunks
         ~jobs:(fault_shards ~jobs (Array.length faults))
         (fun faults -> run_event ~budget c ~observe ~faults tests)
         faults)
  | Reference -> run_reference ~budget c ~observe ~faults tests

(** [run_matrix c ~observe ~faults ~active tests] computes the full
    detection matrix without fault dropping: one signature per index in
    [active], one byte per test ([1] = detected).  The packed engine
    sweeps word-sized test chunks, so the whole matrix costs one good
    simulation plus one event-driven sweep per fault per word —
    Compact's reverse-order replay and Diagnose's dictionary both read
    their answers straight out of this matrix. *)
let run_matrix ?(engine = Packed) ?(budget = Engine.Budget.none) c ~observe
    ~(faults : Fault.t array) ~(active : int array)
    (tests : Pattern.test array) =
  let nt = Array.length tests in
  let sigs = Array.init (Array.length active) (fun _ -> Bytes.make nt '\000') in
  (if Array.length active > 0 && nt > 0 then
     match engine with
     | Packed ->
       let good = make_good c and eng = make_engine c in
       let piers = pier_flags c observe in
       let pos = ref 0 in
       while !pos < nt && not (Engine.Budget.poll budget) do
         let len = min P.width (nt - !pos) in
         let chunk = Array.sub tests !pos len in
         let off = !pos in
         pos := !pos + len;
         packed_word ~budget ~jobs:1 eng good c ~observe ~piers
           ~stop_on_detect:false ~faults ~active chunk
           ~apply:(fun k det ->
             for l = 0 to len - 1 do
               if (det lsr l) land 1 = 1 then
                 Bytes.set sigs.(k) (off + l) '\001'
             done)
       done
     | Event | Reference ->
       (* one test at a time: a row of flags per test *)
       let flags_of =
         if engine = Reference then
           run_test_reference ~budget c ~observe ~faults ~active
         else begin
           let good = make_good c and eng = make_engine c in
           event_test ~budget eng good c ~observe
             ~piers:(pier_flags c observe) ~faults ~active
         end
       in
       Array.iteri
         (fun ti test ->
           if not (Engine.Budget.poll budget) then
             Array.iteri
               (fun k hit -> if hit then Bytes.set sigs.(k) ti '\001')
               (flags_of test))
         tests);
  sigs
