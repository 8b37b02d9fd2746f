(** Sequential fault simulation behind three interchangeable engines.

    - {b Packed} (PPSFP, the default): test patterns are packed into the
      lanes of a native machine word ({!Sim.Packed}, up to
      [Sys.int_size] patterns per word).  The good circuit is simulated
      once per word — every gate evaluation settles a whole word of
      patterns in a handful of unboxed bit ops over dual-rail planes —
      and each fault is then event-driven through the word: injection is
      a per-net stuck mask (two AND/OR ops), and only nets whose packed
      value diverges from the good planes are re-evaluated, seeded at
      the injection site and at flip-flops whose faulty state word
      differs.
    - {b Event}: the parallel-fault engine — bit column 0 of a
      {!Sim.Logic3} word carries the good circuit, columns 1..63 one
      faulty circuit each, one test at a time.  Still used for
      single-test grading ({!run_test}), where there is only one pattern
      to pack.
    - {b Reference}: the straight-line oracle — every net re-evaluated
      on every frame of every 63-fault batch.  Kept as the differential
      oracle ({!run_batch_reference}) and benchmark baseline.

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

(* Columns (other than 0) whose value provably differs from column 0. *)
let detected_mask (v : L.t) : int64 =
  match L.get v 0 with
  | None -> 0L
  | Some true -> Int64.logand v.L.lo (Int64.lognot 1L)
  | Some false -> Int64.logand v.L.hi (Int64.lognot 1L)

(* ------------------------------------------------------------------ *)
(* Driving a test through {!Sim.Eval}: the one three-valued simulation  *)
(* loop that the reference oracle, the event engine's good simulation   *)
(* and the other fault models (transition, bridge, simgen) share.       *)
(* ------------------------------------------------------------------ *)

let no_observe = { ob_pos = false; ob_pier_ffs = [] }

(** [simulate ?hook ?passes ?on_frame sim ~observe test] applies [test]
    to [sim]: flip-flops start at X except the PIER loads, each frame is
    evaluated [passes] times (default 1) through [hook], [on_frame f]
    runs once frame [f] has settled, the POs are observed every frame
    and the PIER state after the last.  Returns the mask of columns
    (other than 0) that differed from column 0 at an observation. *)
let simulate ?hook ?(passes = 1) ?(on_frame = ignore) sim ~observe
    (test : Pattern.test) =
  let c = sim.Sim.Eval.circuit in
  let values = sim.Sim.Eval.values and state = sim.Sim.Eval.state in
  Sim.Eval.reset_state sim;
  List.iter
    (fun (ff, v) -> state.(ff) <- (if v then L.one else L.zero))
    test.Pattern.p_loads;
  let detected = ref 0L in
  let frames = Array.length test.Pattern.p_vectors in
  for f = 0 to frames - 1 do
    let pis =
      Array.map (fun b -> if b then L.one else L.zero)
        test.Pattern.p_vectors.(f)
    in
    for _ = 1 to passes do
      Sim.Eval.eval ?hook sim pis
    done;
    on_frame f;
    if observe.ob_pos then
      Array.iter
        (fun po -> detected := Int64.logor !detected (detected_mask values.(po)))
        c.N.pos;
    Sim.Eval.tick sim;
    if f = frames - 1 then
      List.iter
        (fun ff -> detected := Int64.logor !detected (detected_mask state.(ff)))
        observe.ob_pier_ffs
  done;
  !detected

(* Is column [k] set in [mask]? *)
let column mask k = Int64.logand (Int64.shift_right_logical mask k) 1L = 1L

(** [batch_coverage ~simulate_batch items tests] = percentage of [items]
    detected by [tests], each test simulated against the items it has
    not yet detected in batches of at most 63 (item [k] of a batch in
    column [k + 1]). *)
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
            let batch = List.filteri (fun k _ -> k < 63) l in
            let mask =
              simulate_batch (List.map (fun i -> items.(i)) batch) test
            in
            List.iteri
              (fun k i -> if column mask (k + 1) then detected.(i) <- true)
              batch;
            batches (List.filteri (fun k _ -> k >= 63) l)
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

(** [run_batch_reference c ~faults ~observe test] simulates [test]
    against at most 63 faults by evaluating every net on every frame;
    returns a bool list aligned with [faults] marking the detected
    ones.  The oracle the other engines are checked against. *)
let run_batch_reference c ~faults ~observe (test : Pattern.test) =
  assert (List.length faults <= 63);
  let sim = Sim.Eval.create c in
  let hooked = Array.make (N.num_nets c) false in
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
  add_ref_evals
    (Array.length test.Pattern.p_vectors * Array.length sim.Sim.Eval.order);
  List.mapi (fun i _ -> column mask (i + 1)) faults

(* One test against the faults selected by [active], in 63-fault
   reference batches; flags align with [active]. *)
let run_test_reference ?(budget = Engine.Budget.none) c ~observe
    ~(faults : Fault.t array) ~(active : int array) test =
  let len = Array.length active in
  let flags = Array.make len false in
  let pos = ref 0 in
  while !pos < len && not (Engine.Budget.poll budget) do
    let k = min 63 (len - !pos) in
    let start = !pos in
    let batch = List.init k (fun i -> faults.(active.(start + i))) in
    let res = run_batch_reference c ~faults:batch ~observe test in
    List.iteri (fun i hit -> if hit then flags.(start + i) <- true) res;
    pos := !pos + k
  done;
  flags

(* Multi-test reference run with per-test fault dropping — the dropping
   semantics every engine shares. *)
let run_reference ?(budget = Engine.Budget.none) c ~observe
    ~(faults : Fault.t array) tests =
  let n = Array.length faults in
  let detected = Array.make n false in
  List.iter
    (fun test ->
      let active =
        if Engine.Budget.poll budget then [||]
        else
          Array.of_list
            (List.filter (fun i -> not detected.(i)) (List.init n Fun.id))
      in
      if Array.length active > 0 then begin
        let flags =
          run_test_reference ~budget c ~observe ~faults ~active test
        in
        Array.iteri (fun k i -> if flags.(k) then detected.(i) <- true) active
      end)
    tests;
  detected

(* ------------------------------------------------------------------ *)
(* Event-driven engine.                                                *)
(* ------------------------------------------------------------------ *)

(* Cached good-circuit values of one test: per frame, per net, one byte
   (0 = X, 1 = zero, 2 = one); likewise the flip-flop state at the start
   of each frame.  Computed once per test and shared by every fault
   batch. *)
type good = {
  go_vals : Bytes.t array;
  go_state : Bytes.t array;
}

let byte_of v =
  match L.get v 0 with None -> 0 | Some false -> 1 | Some true -> 2

(* The good value replicated across all 64 columns (constants: no
   allocation). *)
let rep b = if b = 1 then L.zero else if b = 2 then L.one else L.x

(* Mutable per-circuit scratch, reused across frames, batches and tests. *)
type engine = {
  c : N.t;
  info : A.info;
  sim : Sim.Eval.t;            (* the good simulation *)
  fvals : L.t array;           (* faulty values, valid where dirty *)
  dirty : bool array;          (* net diverges from the good value *)
  queued : bool array;         (* net scheduled this frame *)
  touched : int array;         (* dirty nets, for cleanup *)
  mutable touched_n : int;
  buckets : int list array;    (* event queue, bucketed by level *)
  fstate : L.t array;          (* faulty state, valid where state_dirty *)
  state_dirty : bool array;
  inj_hi : int64 array;        (* per net: columns forced to 1 *)
  inj_lo : int64 array;        (* per net: columns forced to 0 *)
}

let make_engine c =
  let info = N.analysis c in
  let n = N.num_nets c in
  let nff = max 1 (N.num_ffs c) in
  { c; info;
    sim = Sim.Eval.create c;
    fvals = Array.make n L.x;
    dirty = Array.make n false;
    queued = Array.make n false;
    touched = Array.make n 0;
    touched_n = 0;
    buckets = Array.make (info.A.max_level + 1) [];
    fstate = Array.make nff L.x;
    state_dirty = Array.make nff false;
    inj_hi = Array.make n 0L;
    inj_lo = Array.make n 0L }

(* Simulate the fault-free circuit over the whole test, recording every
   net value and the state at the start of each frame. *)
let good_sim eng (test : Pattern.test) =
  Obs.Metrics.incr good_sims_counter;
  let c = eng.c in
  let n = N.num_nets c in
  let nff = N.num_ffs c in
  let frames = Array.length test.Pattern.p_vectors in
  let go_vals = Array.init frames (fun _ -> Bytes.make n '\000') in
  let go_state = Array.init frames (fun _ -> Bytes.make (max 1 nff) '\000') in
  let sim = eng.sim in
  (* after frame [f] settles the state still holds its starting value *)
  let record f =
    for i = 0 to nff - 1 do
      Bytes.set_uint8 go_state.(f) i (byte_of sim.Sim.Eval.state.(i))
    done;
    add_evals (Array.length sim.Sim.Eval.order);
    for net = 0 to n - 1 do
      Bytes.set_uint8 go_vals.(f) net (byte_of sim.Sim.Eval.values.(net))
    done
  in
  ignore (simulate sim ~observe:no_observe ~on_frame:record test : int64);
  { go_vals; go_state }

(* Simulate one batch of at most 63 faults against the cached good
   values; returns the detection bitmask (bit k+1 = batch.(k)). *)
let simulate_batch eng good ~observe (batch : Fault.t array) test =
  Obs.Metrics.incr batches_counter;
  let c = eng.c in
  let info = eng.info in
  let nb = Array.length batch in
  assert (nb <= 63);
  (* O(1) fault injection: per-net column masks, built once per batch *)
  let inj_nets = ref [] in
  Array.iteri
    (fun k (f : Fault.t) ->
      let net = f.Fault.f_net in
      let m = Int64.shift_left 1L (k + 1) in
      if eng.inj_hi.(net) = 0L && eng.inj_lo.(net) = 0L then
        inj_nets := net :: !inj_nets;
      if f.Fault.f_stuck then eng.inj_hi.(net) <- Int64.logor eng.inj_hi.(net) m
      else eng.inj_lo.(net) <- Int64.logor eng.inj_lo.(net) m)
    batch;
  let inj_nets = !inj_nets in
  Array.fill eng.state_dirty 0 (Array.length eng.state_dirty) false;
  let detected = ref 0L in
  let evals = ref 0 in
  let frames = Array.length test.Pattern.p_vectors in
  for f = 0 to frames - 1 do
    let gv = good.go_vals.(f) in
    let gs = good.go_state.(f) in
    let pi_vec = test.Pattern.p_vectors.(f) in
    let value_of a =
      if eng.dirty.(a) then eng.fvals.(a) else rep (Bytes.get_uint8 gv a)
    in
    let schedule net =
      if not eng.queued.(net) then begin
        eng.queued.(net) <- true;
        let lv = info.A.level.(net) in
        eng.buckets.(lv) <- net :: eng.buckets.(lv)
      end
    in
    (* seed: injection sites always, plus flip-flops whose faulty state
       diverged from the good state *)
    List.iter schedule inj_nets;
    Array.iteri (fun i sd -> if sd then schedule c.N.ff_q.(i)) eng.state_dirty;
    (* levelized event propagation: fanouts are strictly deeper than
       their fanins, so each net is evaluated at most once per frame *)
    for lv = 0 to info.A.max_level do
      let rec drain = function
        | [] -> ()
        | net :: rest ->
          eng.queued.(net) <- false;
          let v =
            match c.N.drv.(net) with
            | N.Pi i -> if pi_vec.(i) then L.one else L.zero
            | N.Ff i ->
              if eng.state_dirty.(i) then eng.fstate.(i)
              else rep (Bytes.get_uint8 gs i)
            | N.C0 -> L.zero
            | N.C1 -> L.one
            | N.G1 (N.Inv, a) -> L.v_not (value_of a)
            | N.G1 (N.Buff, a) -> value_of a
            | N.G2 (N.And, a, b) -> L.v_and (value_of a) (value_of b)
            | N.G2 (N.Or, a, b) -> L.v_or (value_of a) (value_of b)
            | N.G2 (N.Xor, a, b) -> L.v_xor (value_of a) (value_of b)
            | N.G2 (N.Nand, a, b) -> L.v_not (L.v_and (value_of a) (value_of b))
            | N.G2 (N.Nor, a, b) -> L.v_not (L.v_or (value_of a) (value_of b))
            | N.G2 (N.Xnor, a, b) -> L.v_not (L.v_xor (value_of a) (value_of b))
            | N.Mux (s, a, b) -> L.v_mux (value_of s) (value_of a) (value_of b)
          in
          let v =
            let set_hi = eng.inj_hi.(net) and set_lo = eng.inj_lo.(net) in
            let clear = Int64.logor set_hi set_lo in
            if clear = 0L then v
            else
              { L.hi = Int64.logor (Int64.logand v.L.hi (Int64.lognot clear)) set_hi;
                lo = Int64.logor (Int64.logand v.L.lo (Int64.lognot clear)) set_lo }
          in
          incr evals;
          if not (L.equal v (rep (Bytes.get_uint8 gv net))) then begin
            eng.fvals.(net) <- v;
            eng.dirty.(net) <- true;
            eng.touched.(eng.touched_n) <- net;
            eng.touched_n <- eng.touched_n + 1;
            for k = info.A.fanout_off.(net) to info.A.fanout_off.(net + 1) - 1 do
              schedule info.A.fanout.(k)
            done
          end;
          drain rest
      in
      let b = eng.buckets.(lv) in
      eng.buckets.(lv) <- [];
      drain b
    done;
    if observe.ob_pos then
      Array.iter
        (fun po ->
          if eng.dirty.(po) then
            detected := Int64.logor !detected (detected_mask eng.fvals.(po)))
        c.N.pos;
    (* capture next faulty state (before clearing the dirty flags) *)
    Array.iteri
      (fun i d ->
        if eng.dirty.(d) then begin
          eng.fstate.(i) <- eng.fvals.(d);
          eng.state_dirty.(i) <- true
        end
        else eng.state_dirty.(i) <- false)
      c.N.ff_d;
    if f = frames - 1 then
      List.iter
        (fun ff ->
          if eng.state_dirty.(ff) then
            detected := Int64.logor !detected (detected_mask eng.fstate.(ff)))
        observe.ob_pier_ffs;
    for k = 0 to eng.touched_n - 1 do
      eng.dirty.(eng.touched.(k)) <- false
    done;
    eng.touched_n <- 0
  done;
  List.iter
    (fun net ->
      eng.inj_hi.(net) <- 0L;
      eng.inj_lo.(net) <- 0L)
    inj_nets;
  add_evals !evals;
  !detected

(* Run one test against the faults selected by [active], batching in
   groups of 63 against a single shared good simulation. *)
let run_active ?(budget = Engine.Budget.none) eng good ~observe
    ~(faults : Fault.t array) ~(active : int array)
    ~(flags : bool array) test =
  let len = Array.length active in
  let pos = ref 0 in
  while !pos < len && not (Engine.Budget.poll budget) do
    let k = min 63 (len - !pos) in
    let batch = Array.init k (fun i -> faults.(active.(!pos + i))) in
    let det = simulate_batch eng good ~observe batch test in
    for i = 0 to k - 1 do
      if Int64.logand (Int64.shift_right_logical det (i + 1)) 1L = 1L then
        flags.(!pos + i) <- true
    done;
    pos := !pos + k
  done

let run_test_event ?(budget = Engine.Budget.none) c ~observe ~faults
    ~active test =
  let eng = make_engine c in
  let good = good_sim eng test in
  let flags = Array.make (Array.length active) false in
  run_active ~budget eng good ~observe ~faults ~active ~flags test;
  flags

(* Multi-test event-driven run with per-test fault dropping. *)
let run_event ?(budget = Engine.Budget.none) c ~observe
    ~(faults : Fault.t array) tests =
  let n = Array.length faults in
  let detected = Array.make n false in
  if n > 0 then begin
    let eng = make_engine c in
    let prog =
      Obs.Progress.start ~total:(List.length tests) "fsim.grade"
    in
    List.iter
      (fun test ->
        Obs.Progress.step prog;
        (* only the still-undetected faults are simulated *)
        let remaining = ref 0 in
        for i = 0 to n - 1 do
          if not detected.(i) then incr remaining
        done;
        if !remaining > 0 && not (Engine.Budget.poll budget) then begin
          let active = Array.make !remaining 0 in
          let k = ref 0 in
          for i = 0 to n - 1 do
            if not detected.(i) then begin
              active.(!k) <- i;
              incr k
            end
          done;
          let good = good_sim eng test in
          let flags = Array.make !remaining false in
          run_active ~budget eng good ~observe ~faults ~active ~flags test;
          Array.iteri
            (fun j hit -> if hit then detected.(active.(j)) <- true)
            flags
        end)
      tests;
    Obs.Progress.finish prog
  end;
  detected

(* ------------------------------------------------------------------ *)
(* Packed engine (PPSFP): patterns in word lanes, one fault at a time.  *)
(* ------------------------------------------------------------------ *)

(* Good-simulation bit planes of one word of tests: [pg_hi.(f).(net)] /
   [pg_lo.(f).(net)] are net values during frame [f]; [pg_sth.(f).(i)] /
   [pg_stl.(f).(i)] the flip-flop state at the {e start} of frame [f]
   (entry [frames] holds the state after the last frame, for PIER
   observation).  Read-only once built, so shards may share one copy. *)
type pgood = {
  pg_hi : int array array;
  pg_lo : int array array;
  pg_sth : int array array;
  pg_stl : int array array;
}

(* Per-domain scratch of the packed engine: structure-of-arrays planes
   indexed by net, reused across frames, faults and words.  The sweep is
   strictly activity-proportional — state divergence is tracked as a
   list (fed by [xffd], a net -> flip-flop CSR), never by scanning all
   flip-flops, so a fault with a five-net cone costs a handful of ops
   per frame no matter how much state the circuit has. *)
type pengine = {
  xc : N.t;
  xinfo : A.info;
  xgh : int array;             (* good hi plane for the frame being built *)
  xgl : int array;
  xsh : int array;             (* good state hi plane *)
  xsl : int array;
  xfh : int array;             (* faulty hi plane, valid where xdirty *)
  xfl : int array;
  xdirty : bool array;
  xqueued : bool array;
  xtouched : int array;
  mutable xtouched_n : int;
  xbuckets : int list array;
  xfsh : int array;            (* faulty state, valid where xsdirty *)
  xfsl : int array;
  xsdirty : bool array;
  xsdirty_list : int array;    (* the flip-flops behind the xsdirty flags *)
  mutable xsdirty_n : int;
  xffd_off : int array;        (* net -> flip-flops it drives (CSR) *)
  xffd : int array;
  mutable xdets : int array;   (* per active fault: the word's lane mask *)
}

let make_pengine c =
  let info = N.analysis c in
  let n = N.num_nets c in
  let nff = max 1 (N.num_ffs c) in
  (* CSR of d-input net -> flip-flop indices *)
  let xffd_off = Array.make (n + 1) 0 in
  Array.iter (fun d -> xffd_off.(d + 1) <- xffd_off.(d + 1) + 1) c.N.ff_d;
  for i = 1 to n do
    xffd_off.(i) <- xffd_off.(i) + xffd_off.(i - 1)
  done;
  let xffd = Array.make (max 1 (N.num_ffs c)) 0 in
  let cursor = Array.copy xffd_off in
  Array.iteri
    (fun i d ->
      xffd.(cursor.(d)) <- i;
      cursor.(d) <- cursor.(d) + 1)
    c.N.ff_d;
  { xc = c; xinfo = info;
    xgh = Array.make n 0;
    xgl = Array.make n 0;
    xsh = Array.make nff 0;
    xsl = Array.make nff 0;
    xfh = Array.make n 0;
    xfl = Array.make n 0;
    xdirty = Array.make n false;
    xqueued = Array.make n false;
    xtouched = Array.make n 0;
    xtouched_n = 0;
    xbuckets = Array.make (info.A.max_level + 1) [];
    xfsh = Array.make nff 0;
    xfsl = Array.make nff 0;
    xsdirty = Array.make nff false;
    xsdirty_list = Array.make nff 0;
    xsdirty_n = 0;
    xffd_off;
    xffd;
    xdets = [||] }

let batch_of_tests c (chunk : Pattern.test array) =
  P.make_batch ~num_pis:(N.num_pis c) ~num_ffs:(N.num_ffs c)
    ~vectors:(Array.map (fun t -> t.Pattern.p_vectors) chunk)
    ~loads:(Array.map (fun t -> t.Pattern.p_loads) chunk)

(* Simulate the fault-free circuit over a whole word of tests: one
   linear sweep of the topo order per frame, every gate settling all
   lanes at once. *)
let packed_good_sim eng (b : P.batch) =
  Obs.Metrics.incr packed_words_counter;
  let c = eng.xc in
  let n = N.num_nets c in
  let nff = N.num_ffs c in
  let frames = b.P.b_frames in
  let pg_hi = Array.init frames (fun _ -> Array.make n 0) in
  let pg_lo = Array.init frames (fun _ -> Array.make n 0) in
  let pg_sth = Array.init (frames + 1) (fun _ -> Array.make (max 1 nff) 0) in
  let pg_stl = Array.init (frames + 1) (fun _ -> Array.make (max 1 nff) 0) in
  let gh = eng.xgh and gl = eng.xgl in
  let sh = eng.xsh and sl = eng.xsl in
  Array.fill sh 0 (Array.length sh) 0;
  Array.fill sl 0 (Array.length sl) 0;
  for i = 0 to nff - 1 do
    sh.(i) <- b.P.b_load_hi.(i);
    sl.(i) <- b.P.b_load_lo.(i)
  done;
  let order = eng.xinfo.A.order in
  let m = b.P.b_mask in
  for f = 0 to frames - 1 do
    Array.blit sh 0 pg_sth.(f) 0 nff;
    Array.blit sl 0 pg_stl.(f) 0 nff;
    let pih = b.P.b_pi_hi.(f) and pil = b.P.b_pi_lo.(f) in
    Array.iter
      (fun net ->
        match c.N.drv.(net) with
        | N.Pi i -> gh.(net) <- pih.(i); gl.(net) <- pil.(i)
        | N.Ff i -> gh.(net) <- sh.(i); gl.(net) <- sl.(i)
        | N.C0 -> gh.(net) <- 0; gl.(net) <- m
        | N.C1 -> gh.(net) <- m; gl.(net) <- 0
        | N.G1 (N.Inv, a) -> gh.(net) <- gl.(a); gl.(net) <- gh.(a)
        | N.G1 (N.Buff, a) -> gh.(net) <- gh.(a); gl.(net) <- gl.(a)
        | N.G2 (N.And, a, b) ->
          gh.(net) <- gh.(a) land gh.(b);
          gl.(net) <- gl.(a) lor gl.(b)
        | N.G2 (N.Or, a, b) ->
          gh.(net) <- gh.(a) lor gh.(b);
          gl.(net) <- gl.(a) land gl.(b)
        | N.G2 (N.Xor, a, b) ->
          gh.(net) <- (gh.(a) land gl.(b)) lor (gl.(a) land gh.(b));
          gl.(net) <- (gh.(a) land gh.(b)) lor (gl.(a) land gl.(b))
        | N.G2 (N.Nand, a, b) ->
          gh.(net) <- gl.(a) lor gl.(b);
          gl.(net) <- gh.(a) land gh.(b)
        | N.G2 (N.Nor, a, b) ->
          gh.(net) <- gl.(a) land gl.(b);
          gl.(net) <- gh.(a) lor gh.(b)
        | N.G2 (N.Xnor, a, b) ->
          gh.(net) <- (gh.(a) land gh.(b)) lor (gl.(a) land gl.(b));
          gl.(net) <- (gh.(a) land gl.(b)) lor (gl.(a) land gh.(b))
        | N.Mux (s, a, b) ->
          gh.(net) <-
            (gh.(s) land gh.(b)) lor (gl.(s) land gh.(a))
            lor (gh.(a) land gh.(b));
          gl.(net) <-
            (gh.(s) land gl.(b)) lor (gl.(s) land gl.(a))
            lor (gl.(a) land gl.(b)))
      order;
    add_packed_evals (Array.length order);
    Array.blit gh 0 pg_hi.(f) 0 n;
    Array.blit gl 0 pg_lo.(f) 0 n;
    Array.iteri
      (fun i d ->
        sh.(i) <- gh.(d);
        sl.(i) <- gl.(d))
      c.N.ff_d
  done;
  Array.blit sh 0 pg_sth.(frames) 0 nff;
  Array.blit sl 0 pg_stl.(frames) 0 nff;
  { pg_hi; pg_lo; pg_sth; pg_stl }

(* Event-drive one fault through the whole word: injection is two mask
   ops at the fault net, and only nets whose packed value diverges from
   the good planes are re-evaluated.  Returns the per-lane detection
   mask, already restricted to the lanes still inside their own test
   ([b_active]) and, for PIER observation, to each lane's own final
   frame ([b_last]).  With [stop_on_detect] the sweep ends at the first
   frame that detects the fault in any lane — sound whenever the caller
   only fault-drops on the mask (the remaining frames could only set
   more lane bits), and the dominant saving on dropping runs where most
   faults fall in the first frames of the first word. *)
(* PIER membership as a bitmap over flip-flop indices, built once per
   word (or run) so the sweep never walks the pier list. *)
let pier_flags c observe =
  let a = Array.make (max 1 (N.num_ffs c)) false in
  List.iter (fun ff -> a.(ff) <- true) observe.ob_pier_ffs;
  a

let packed_sweep eng good (b : P.batch) ~observe ~piers ~stop_on_detect
    (flt : Fault.t) =
  let c = eng.xc in
  let info = eng.xinfo in
  let inj_net = flt.Fault.f_net in
  let inj_hi = if flt.Fault.f_stuck then b.P.b_mask else 0 in
  let inj_lo = if flt.Fault.f_stuck then 0 else b.P.b_mask in
  (* clear state divergence left over from an early-exited sweep *)
  for k = 0 to eng.xsdirty_n - 1 do
    eng.xsdirty.(eng.xsdirty_list.(k)) <- false
  done;
  eng.xsdirty_n <- 0;
  let detected = ref 0 in
  let evals = ref 0 in
  let frames = b.P.b_frames in
  let fr = ref 0 in
  while !fr < frames && not (stop_on_detect && !detected <> 0) do
    let f = !fr in
    let gh = good.pg_hi.(f) and gl = good.pg_lo.(f) in
    let gsh = good.pg_sth.(f) and gsl = good.pg_stl.(f) in
    let pih = b.P.b_pi_hi.(f) and pil = b.P.b_pi_lo.(f) in
    let vh a = if eng.xdirty.(a) then eng.xfh.(a) else gh.(a) in
    let vl a = if eng.xdirty.(a) then eng.xfl.(a) else gl.(a) in
    let schedule net =
      if not eng.xqueued.(net) then begin
        eng.xqueued.(net) <- true;
        let lv = info.A.level.(net) in
        eng.xbuckets.(lv) <- net :: eng.xbuckets.(lv)
      end
    in
    schedule inj_net;
    for k = 0 to eng.xsdirty_n - 1 do
      schedule c.N.ff_q.(eng.xsdirty_list.(k))
    done;
    for lv = 0 to info.A.max_level do
      let rec drain = function
        | [] -> ()
        | net :: rest ->
          eng.xqueued.(net) <- false;
          let nh = ref 0 and nl = ref 0 in
          if net = inj_net then begin
            nh := inj_hi;
            nl := inj_lo
          end
          else begin
            (match c.N.drv.(net) with
             | N.Pi i -> nh := pih.(i); nl := pil.(i)
             | N.Ff i ->
               if eng.xsdirty.(i) then begin
                 nh := eng.xfsh.(i);
                 nl := eng.xfsl.(i)
               end
               else begin
                 nh := gsh.(i);
                 nl := gsl.(i)
               end
             | N.C0 -> nh := 0; nl := b.P.b_mask
             | N.C1 -> nh := b.P.b_mask; nl := 0
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
               nh :=
                 (vh s land vh b) lor (vl s land vh a)
                 lor (vh a land vh b);
               nl :=
                 (vh s land vl b) lor (vl s land vl a)
                 lor (vl a land vl b))
          end;
          incr evals;
          if !nh <> gh.(net) || !nl <> gl.(net) then begin
            eng.xfh.(net) <- !nh;
            eng.xfl.(net) <- !nl;
            eng.xdirty.(net) <- true;
            eng.xtouched.(eng.xtouched_n) <- net;
            eng.xtouched_n <- eng.xtouched_n + 1;
            for k = info.A.fanout_off.(net) to info.A.fanout_off.(net + 1) - 1 do
              schedule info.A.fanout.(k)
            done
          end;
          drain rest
      in
      let bk = eng.xbuckets.(lv) in
      eng.xbuckets.(lv) <- [];
      drain bk
    done;
    if observe.ob_pos then begin
      let act = b.P.b_active.(f) in
      Array.iter
        (fun po ->
          if eng.xdirty.(po) then
            detected :=
              !detected
              lor (((gh.(po) land eng.xfl.(po))
                    lor (gl.(po) land eng.xfh.(po)))
                   land act))
        c.N.pos
    end;
    (* capture next faulty state: drop last frame's divergence, then walk
       the nets that diverged this frame and mark exactly the flip-flops
       they feed — cost proportional to the fault's activity, not to the
       amount of state in the circuit *)
    for k = 0 to eng.xsdirty_n - 1 do
      eng.xsdirty.(eng.xsdirty_list.(k)) <- false
    done;
    eng.xsdirty_n <- 0;
    for k = 0 to eng.xtouched_n - 1 do
      let d = eng.xtouched.(k) in
      for j = eng.xffd_off.(d) to eng.xffd_off.(d + 1) - 1 do
        let i = eng.xffd.(j) in
        eng.xfsh.(i) <- eng.xfh.(d);
        eng.xfsl.(i) <- eng.xfl.(d);
        if not eng.xsdirty.(i) then begin
          eng.xsdirty.(i) <- true;
          eng.xsdirty_list.(eng.xsdirty_n) <- i;
          eng.xsdirty_n <- eng.xsdirty_n + 1
        end
      done
    done;
    (* each lane observes PIER state after its own last frame; walk the
       diverged flip-flops (few) against the pier bitmap, not the pier
       list (possibly large) *)
    let last = b.P.b_last.(f) in
    if last <> 0 && eng.xsdirty_n > 0 then begin
      let nsh = good.pg_sth.(f + 1) and nsl = good.pg_stl.(f + 1) in
      for k = 0 to eng.xsdirty_n - 1 do
        let ff = eng.xsdirty_list.(k) in
        if piers.(ff) then
          detected :=
            !detected
            lor (((nsh.(ff) land eng.xfsl.(ff))
                  lor (nsl.(ff) land eng.xfsh.(ff)))
                 land last)
      done
    end;
    for k = 0 to eng.xtouched_n - 1 do
      eng.xdirty.(eng.xtouched.(k)) <- false
    done;
    eng.xtouched_n <- 0;
    incr fr
  done;
  add_packed_evals !evals;
  !detected land b.P.b_mask

(* Fault shards worth cutting [n] faults into at [jobs]: one below 128
   faults, where a shard's scratch engine and task would cost more than
   the sweeps it splits off. *)
let fault_shards ~jobs n = if n < 128 then 1 else jobs

(* Sweep the active faults through one word, observing the per-word time
   histogram and the packed-sweep span; [apply k det] receives, in
   [active] order, the index into [active] and its nonzero lane mask.
   The good planes are built once on [eng] and shared read-only by
   [fault_shards] contiguous shards of [active]: the first sweeps on
   [eng], every other on a scratch engine of its own, and each writes
   its lane masks into its own slice of [eng.xdets]. *)
let packed_word ?(budget = Engine.Budget.none) ~jobs eng c ~observe
    ~stop_on_detect ~(faults : Fault.t array) ~(active : int array)
    (chunk : Pattern.test array) ~apply =
  let t0 = Engine.Clock.now () in
  Obs.Metrics.incr packed_batches_counter;
  let na = Array.length active in
  let shards = fault_shards ~jobs na in
  let sweep () =
    let b = batch_of_tests c chunk in
    let good = packed_good_sim eng b in
    let piers = pier_flags c observe in
    if Array.length eng.xdets < na then eng.xdets <- Array.make na 0;
    let dets = eng.xdets in
    let shard (start, len) =
      let eng = if start = 0 then eng else make_pengine c in
      (* one atomic load per fault; the word loops poll the clock *)
      for k = start to start + len - 1 do
        dets.(k) <-
          (if Engine.Budget.check budget then 0
           else
             packed_sweep eng good b ~observe ~piers ~stop_on_detect
               faults.(active.(k)))
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
       sweep
   else sweep ());
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
    let eng = make_pengine c in
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
      let active = Array.make !remaining 0 in
      let k = ref 0 in
      for i = 0 to n - 1 do
        if not detected.(i) then begin
          active.(!k) <- i;
          incr k
        end
      done;
      packed_word ~budget ~jobs eng c ~observe ~stop_on_detect:true
        ~faults ~active chunk
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
    packed default falls back to the event-driven parallel-fault engine
    (which already words 63 faults per evaluation), its active faults
    cut into [fault_shards] contiguous shards, one injection state
    each; [~engine:Reference] forces the straight-line oracle. *)
let run_test ?(engine = Packed) ?(budget = Engine.Budget.none) ?(jobs = 1)
    c ~observe ~faults ~active test =
  match engine with
  | Reference -> run_test_reference ~budget c ~observe ~faults ~active test
  | Packed | Event ->
    concat
      (Engine.Shard.map_chunks
         ~jobs:(fault_shards ~jobs (Array.length active))
         (fun active -> run_test_event ~budget c ~observe ~faults ~active test)
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
       let eng = make_pengine c in
       let pos = ref 0 in
       while !pos < nt && not (Engine.Budget.poll budget) do
         let len = min P.width (nt - !pos) in
         let chunk = Array.sub tests !pos len in
         let off = !pos in
         pos := !pos + len;
         packed_word ~budget ~jobs:1 eng c ~observe ~stop_on_detect:false
           ~faults ~active chunk
           ~apply:(fun k det ->
             for l = 0 to len - 1 do
               if (det lsr l) land 1 = 1 then
                 Bytes.set sigs.(k) (off + l) '\001'
             done)
       done
     | Event ->
       let eng = make_engine c in
       Array.iteri
         (fun ti test ->
           if not (Engine.Budget.poll budget) then begin
             let good = good_sim eng test in
             let flags = Array.make (Array.length active) false in
             run_active ~budget eng good ~observe ~faults ~active ~flags
               test;
             Array.iteri
               (fun k hit -> if hit then Bytes.set sigs.(k) ti '\001')
               flags
           end)
         tests
     | Reference ->
       Array.iteri
         (fun ti test ->
           if not (Engine.Budget.poll budget) then begin
             let flags =
               run_test_reference ~budget c ~observe ~faults ~active test
             in
             Array.iteri
               (fun k hit -> if hit then Bytes.set sigs.(k) ti '\001')
               flags
           end)
         tests);
  sigs
