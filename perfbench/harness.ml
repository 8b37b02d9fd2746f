(* Shared measurement machinery: the run configuration, the benchmark's
   own clock and raw samples, the measured-phase loop, counter deltas,
   and the one-line JSON result.

   Every timing comes from [Unix.gettimeofday] around the benchmark's
   own calls.  [Atpg.Gen.r_time] is never used (it sums CPU time over
   domains), nor are [Obs.Metrics] histogram percentiles (power-of-two
   buckets): percentiles here are computed from the benchmark's own
   raw latency samples. *)

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;  (* toy sizes, for the benchmark's own self-test *)
}

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics over raw samples.                                        *)
(* ------------------------------------------------------------------ *)

(* Percentile by linear interpolation between the two nearest ranks,
   so that two operations of similar latency trading places between
   runs move it only slightly.  [percentile 50.0] is the median. *)
let percentile p = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    let h = p /. 100.0 *. float_of_int (Array.length a - 1) in
    let lo = truncate h in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = percentile 50.0

let sum = List.fold_left ( +. ) 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let pct a b = 100.0 *. ratio (float_of_int a) (float_of_int b)

(* ------------------------------------------------------------------ *)
(* Timed calls and benchmark-side spans.                               *)
(* ------------------------------------------------------------------ *)

(* [timed span f] runs [f] inside a benchmark span (recorded only when
   tracing is on) and returns its result with its wall seconds. *)
let timed span f =
  let t0 = now () in
  let r = Obs.Span.with_ span f in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Counters.                                                           *)
(* ------------------------------------------------------------------ *)

let h_serve = Obs.Metrics.histogram "factor.serve.request_seconds"

(* Counters that move only when a wall-clock budget binds.  If any of
   them moves during the measured phase, verdicts depend on machine
   speed rather than on the input, and the run is invalid. *)
let budget_counters =
  [ "factor.budget.expired"; "factor.sat.budget_stopped";
    "factor.atpg.budget_skipped" ]

type counters = {
  c_snap : Obs.Metrics.snapshot;
  c_serve_n : int;
  c_serve_s : float;
  c_pool : Engine.Pool.stats option;
}

let read_counters () =
  { c_snap = Obs.Metrics.snapshot ();
    c_serve_n = Obs.Metrics.count h_serve;
    c_serve_s = Obs.Metrics.sum h_serve;
    c_pool = Engine.Pool.global_stats () }

let delta a b name =
  Obs.Metrics.snapshot_counter b.c_snap name
  - Obs.Metrics.snapshot_counter a.c_snap name

(* ------------------------------------------------------------------ *)
(* Passes and the measured phase.                                      *)
(* ------------------------------------------------------------------ *)

(* One pass over a workload's unit of work. *)
type pass = {
  p_wall : float;          (* seconds the pass's operations took *)
  p_ops : float list;      (* per-operation latency, seconds *)
  p_attempted : int;
  p_failed : int;
  p_designs : int;         (* designs carried through the flow *)
  p_detected : int;        (* coverage numerator *)
  p_resolved : int;        (* effectiveness numerator *)
  p_faults : int;          (* coverage/effectiveness denominator *)
  p_extra : (string * float) list;
      (* additive per-layer quantities: parsed "bytes", synthesized
         "gates", client-side "client_s", "store_bytes" written *)
}

(* Several operations (or passes) as one pass: walls, counts and extra
   quantities add up, latency samples are kept. *)
let combine ps =
  let add key ps =
    sum
      (List.map
         (fun p -> Option.value ~default:0.0 (List.assoc_opt key p.p_extra))
         ps)
  in
  let keys = List.sort_uniq compare (List.concat_map (fun p -> List.map fst p.p_extra) ps) in
  let tot f = List.fold_left (fun a p -> a + f p) 0 ps in
  { p_wall = sum (List.map (fun p -> p.p_wall) ps);
    p_ops = List.concat_map (fun p -> p.p_ops) ps;
    p_attempted = tot (fun p -> p.p_attempted);
    p_failed = tot (fun p -> p.p_failed);
    p_designs = tot (fun p -> p.p_designs);
    p_detected = tot (fun p -> p.p_detected);
    p_resolved = tot (fun p -> p.p_resolved);
    p_faults = tot (fun p -> p.p_faults);
    p_extra = List.map (fun k -> (k, add k ps)) keys }

(* Exact counters printed next to each pass wall, so that a noisy wall
   can be told apart from a change in work done. *)
let pass_counters =
  [ "factor.podem.decisions"; "factor.sat.conflicts";
    "factor.sat.propagations"; "factor.fsim.packed_evals";
    "factor.extract.visited_signals"; "factor.serve.requests" ]

(* [measure ~label ~first ~seconds run_pass] repeats [run_pass i] for
   [i] from [first] while another pass of the median length so far
   would be at least half done within [seconds] of wall time (at least
   one pass), so a run lasts [seconds] give or take half a pass, not up
   to one long pass more.  It prints one line per pass with its wall
   and exact counters.  Pass indices never repeat within a run: a
   workload checks its outputs on pass 0 and names its cold inputs
   after the pass. *)
let measure ~label ?(first = 0) ~seconds run_pass =
  let t_start = now () in
  let lengths = ref [] in
  let rec go i acc =
    let t_pass = now () in
    let before = Obs.Metrics.snapshot () in
    let p = run_pass i in
    let after = Obs.Metrics.snapshot () in
    Printf.printf "%s pass %d: wall %.4f s, %d ops%s\n%!" label i p.p_wall
      (List.length p.p_ops)
      (String.concat ""
         (List.filter_map
            (fun n ->
              let d =
                Obs.Metrics.snapshot_counter after n
                - Obs.Metrics.snapshot_counter before n
              in
              if d = 0 then None else Some (Printf.sprintf ", %s %d" n d))
            pass_counters));
    let acc = p :: acc in
    let t = now () in
    lengths := (t -. t_pass) :: !lengths;
    if t +. (median !lengths /. 2.0) > t_start +. seconds then List.rev acc
    else go (i + 1) acc
  in
  go first []

(* [repeat_setup ~times ~teardown setup] runs [setup] [times] times,
   tearing down every result but the last, and returns it with the
   set-up walls. *)
let repeat_setup ~times ~teardown setup =
  let rec go i walls =
    let t0 = now () in
    let s = setup () in
    let walls = (now () -. t0) :: walls in
    if i + 1 >= times then (s, List.rev walls)
    else begin
      teardown s;
      go (i + 1) walls
    end
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Result.                                                             *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line ->
      (match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
       | kb -> float_of_int kb /. 1024.0
       | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> find ())
    | exception End_of_file -> 0.0
  in
  find ()

type metric = string * float * string  (* name, value, unit *)

(* Each operation's median latency across passes.  Every pass repeats
   the same operations in the same order, so this discards one-off
   stalls of a shared host. *)
let per_op_medians passes =
  match passes with
  | [] -> []
  | p :: _ ->
    let ops = List.map (fun p -> Array.of_list p.p_ops) passes in
    List.mapi (fun i _ -> median (List.map (fun a -> a.(i)) ops)) p.p_ops

(* A typical pass takes [wall_s]: the median pass wall when operations
   run concurrently, the sum of per-operation medians otherwise.  Rates
   are one pass's operations and designs over it. *)
let typical_wall ~concurrent passes =
  if concurrent then median (List.map (fun p -> p.p_wall) passes)
  else sum (per_op_medians passes)

(* Latency percentile [p]: taken over each pass's raw samples, so a
   slow request within a pass stays in the tail, then the median of
   these per-pass figures across passes, which damps the host's drift
   from pass to pass. *)
let latency_percentile p passes =
  median (List.map (fun q -> percentile p q.p_ops) passes)

(* The end-to-end metrics every workload prints with tracing off. *)
let end_to_end ~concurrent ~setup_walls ~passes =
  let wall = typical_wall ~concurrent passes in
  let first = List.hd passes in
  let tot f = List.fold_left (fun a p -> a + f p) 0 passes in
  let faults = tot (fun p -> p.p_faults) in
  Printf.printf "latency: %d samples (%d per pass x %d passes), percentiles \
                 per pass, median across passes\n"
    (tot (fun p -> List.length p.p_ops)) (List.length first.p_ops)
    (List.length passes);
  [ ("setup_s", median setup_walls, "s");
    ("wall_s", wall, "s");
    ("coverage_pct", pct (tot (fun p -> p.p_detected)) faults, "%");
    ("effectiveness_pct", pct (tot (fun p -> p.p_resolved)) faults, "%");
    ("designs_per_s", ratio (float_of_int first.p_designs) wall, "1/s");
    ("rps", ratio (float_of_int (List.length first.p_ops)) wall, "1/s");
    ("p50_ms", 1000.0 *. latency_percentile 50.0 passes, "ms");
    ("p95_ms", 1000.0 *. latency_percentile 95.0 passes, "ms");
    ("peak_rss_mb", peak_rss_mb (), "MB") ]

let print_result ~passes ~extra_failed (metrics : metric list) =
  let attempted = List.fold_left (fun a p -> a + p.p_attempted) 0 passes in
  let failed =
    extra_failed + List.fold_left (fun a p -> a + p.p_failed) 0 passes
  in
  Printf.printf "summary: %d passes, %d attempted, %d failed (failed_pct %.4f)\n"
    (List.length passes) attempted failed
    (pct failed (max 1 attempted));
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-32s %16.6f %s\n" n v u)
    metrics;
  let num v = if Float.is_finite v then v else 0.0 in
  let j =
    Obs.Json.Obj
      [ ("correct", Obs.Json.Bool (failed = 0));
        ("attempted", Obs.Json.Int (max 1 attempted));
        ("failed", Obs.Json.Int failed);
        ("metrics",
         Obs.Json.Obj
           (List.map
              (fun (n, v, u) ->
                ( n,
                  Obs.Json.Obj
                    [ ("value", Obs.Json.Float (num v));
                      ("unit", Obs.Json.String u) ] ))
              metrics)) ]
  in
  print_endline (Obs.Json.to_string j)
