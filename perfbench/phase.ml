(* The measured phase of a run and the metrics derived from it.

   Untraced run ([--trace 0]): measure for the whole duration and print
   the end-to-end metrics.  Traced run ([--trace 1]): measure half the
   duration untraced, then half with [Obs.Span] on, and print the
   per-layer metrics of the traced half plus the tracing overhead
   (traced minus untraced typical pass wall).  Every pass does the same
   work, and the clock decides how many passes fit, so per-layer times,
   counts and sizes are per pass: their totals over the traced half
   divided by its number of passes. *)

open Harness

(* The ATPG phases of [Gen.run] fault-simulate the tests they find.
   Their figures leave out the [fsim.packed] spans nested in them, which
   [atpg.fsim_s] already counts, so that no second is counted in two
   layers.  Their own self time would leave out far more: PODEM and SAT
   run inside per-fault child spans ([atpg.fault], [sat.atpg]). *)
let atpg_phases = [ "atpg.random"; "atpg.deterministic"; "atpg.sat_rescue"; "atpg.simgen" ]

(* The daemon synthesizes a whole design with [Synth.Flatten] and
   [Synth.Lower] and no span of its own; [Factor.Transform] calls the
   same two inside [transform.synthesize].  Full synthesis is the
   [synth.flatten] and [synth.lower] spans outside a transform. *)
let full_synthesis = "synth.full"

(* A layer's time: the benchmark's own span where the workload calls
   the layer itself, otherwise the span the library already emits
   (inside [Atpg.Gen.run], or inside the serve daemon).  Never both,
   since the library span nests inside the benchmark's. *)
let layer_spans =
  [ ("verilog.parse_s", None, "parse");
    ("design.elaborate_s", None, "elaborate");
    ("factor.extract_s", Some "bench.extract", "extract.compositional");
    ("synth.full_s", None, full_synthesis);
    ("synth.transform_s", Some "bench.transform", "transform.synthesize");
    ("atpg.fsim_s", None, "fsim.packed");
    ("atpg.random_s", None, "atpg.random");
    ("atpg.podem_s", None, "atpg.deterministic");
    ("sat.rescue_s", None, "atpg.sat_rescue");
    ("atpg.simgen_s", None, "atpg.simgen") ]

(* Seconds per span name over [events], with the ATPG phases less
   their nested fsim, and [full_synthesis] as above. *)
let span_totals events =
  let named n = List.filter (fun (e : Obs.Span.event) -> e.ev_name = n) events in
  (* spans on one domain nest, so a span starting inside [e] ends in it *)
  let inside (e : Obs.Span.event) (f : Obs.Span.event) =
    f.ev_tid = e.ev_tid && f.ev_ts >= e.ev_ts && f.ev_ts < e.ev_ts +. e.ev_dur
  in
  let fsims = named "fsim.packed" and transforms = named "transform.synthesize" in
  let nested_fsim e =
    sum
      (List.filter_map
         (fun (f : Obs.Span.event) -> if inside e f then Some f.ev_dur else None)
         fsims)
  in
  let tbl = Hashtbl.create 32 in
  let add name d =
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (prev +. d)
  in
  List.iter
    (fun (e : Obs.Span.event) ->
      add e.ev_name
        (if List.mem e.ev_name atpg_phases then e.ev_dur -. nested_fsim e else e.ev_dur);
      if List.mem e.ev_name [ "synth.flatten"; "synth.lower" ]
         && not (List.exists (fun t -> inside t e) transforms)
      then add full_synthesis e.ev_dur)
    events;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

let per_layer ~concurrent ~untraced ~traced ~c0 ~c1 =
  let total = span_totals (Obs.Span.events ()) in
  let passes = float_of_int (List.length traced) in
  let per_pass x = x /. passes in
  let layer name =
    let (_, own, lib) = List.find (fun (n, _, _) -> n = name) layer_spans in
    per_pass
      (match Option.map total own with
       | Some t when t > 0.0 -> t
       | _ -> total lib)
  in
  let tr = combine traced in
  let total_extra key = Option.value ~default:0.0 (List.assoc_opt key tr.p_extra) in
  let extra key = per_pass (total_extra key) in
  let fd name = per_pass (float_of_int (delta c0 c1 name)) in
  let times = List.map (fun (n, _, _) -> (n, layer n, "s")) layer_spans in
  let serve_n = c1.c_serve_n - c0.c_serve_n in
  let handler_ms =
    1000.0 *. ratio (c1.c_serve_s -. c0.c_serve_s) (float_of_int serve_n)
  in
  let client_ms =
    1000.0 *. ratio (total_extra "client_s") (float_of_int (List.length tr.p_ops))
  in
  let pool f =
    match (c0.c_pool, c1.c_pool) with
    | Some a, Some b -> f a b
    | _ -> 0.0
  in
  let warm = fd "factor.serve.cache_warm_mem" +. fd "factor.serve.cache_warm_disk" in
  let wall = typical_wall ~concurrent in
  times
  @ [ ("verilog.bytes_per_s", ratio (extra "bytes") (layer "verilog.parse_s"), "B/s");
      ("factor.extract.visited_signals", fd "factor.extract.visited_signals", "count");
      ("factor.compose.hit_ratio",
       ratio (fd "factor.compose.cache_hits")
         (fd "factor.compose.cache_hits" +. fd "factor.compose.cache_misses"),
       "ratio");
      ("synth.gates", extra "gates", "count");
      ("atpg.fsim.packed_evals", fd "factor.fsim.packed_evals", "count");
      ("atpg.fsim.evals_per_s",
       ratio (fd "factor.fsim.packed_evals") (layer "atpg.fsim_s"), "1/s");
      ("atpg.podem.decisions", fd "factor.podem.decisions", "count");
      ("atpg.podem.backtracks", fd "factor.podem.backtracks", "count");
      ("atpg.podem.decisions_per_s",
       ratio (fd "factor.podem.decisions") (layer "atpg.podem_s"), "1/s");
      ("atpg.podem.abort_ratio",
       ratio (fd "factor.podem.aborted") (fd "factor.podem.runs"), "ratio");
      ("sat.conflicts", fd "factor.sat.conflicts", "count");
      ("sat.propagations", fd "factor.sat.propagations", "count");
      ("sat.props_per_s",
       ratio (fd "factor.sat.propagations") (layer "sat.rescue_s"), "1/s");
      ("sat.decided_ratio",
       ratio (fd "factor.sat.sat" +. fd "factor.sat.unsat") (fd "factor.sat.solves"),
       "ratio");
      ("serve.handler_ms", handler_ms, "ms");
      ("serve.overhead_ms", (if serve_n = 0 then 0.0 else client_ms -. handler_ms), "ms");
      ("serve.warm_ratio", ratio warm (warm +. fd "factor.serve.cache_cold"), "ratio");
      ("serve.cache_evicted", fd "factor.serve.cache_evicted", "count");
      ("serve.store_bytes", extra "store_bytes", "B");
      ("engine.pool.queue_wait_s",
       per_pass
         (pool (fun a b -> b.Engine.Pool.ps_queue_wait -. a.Engine.Pool.ps_queue_wait)),
       "s");
      ("engine.pool.utilization",
       pool (fun a b ->
           ratio
             (b.Engine.Pool.ps_run_time -. a.Engine.Pool.ps_run_time)
             ((b.Engine.Pool.ps_wall -. a.Engine.Pool.ps_wall)
              *. float_of_int b.Engine.Pool.ps_jobs)),
       "ratio");
      ("trace.untraced_wall_s", wall untraced, "s");
      ("trace.traced_wall_s", wall traced, "s");
      ("trace.overhead_s", wall traced -. wall untraced, "s") ]

(* Failed operations attributable to the budget guard: every move of a
   wall-budget counter during the measured phase counts as a failure. *)
let budget_guard c0 c1 =
  List.fold_left
    (fun acc name ->
      let n = delta c0 c1 name in
      if n <> 0 then
        Printf.eprintf "budget guard: %s moved by %d during the measured phase\n%!"
          name n;
      acc + abs n)
    0 budget_counters

(* Set-up is timed three times before the measured phase and twice
   after it, so that its median spans the run like the passes do rather
   than one moment of a host whose speed drifts. *)
let setups_before = 3
let setups_after = 2

(* [run cfg ~concurrent ~setup ~teardown run_pass] sets up, measures
   [run_pass s] and prints the result line. *)
let run cfg ~concurrent ~setup ~teardown run_pass =
  let (s, walls) = repeat_setup ~times:setups_before ~teardown setup in
  let measured () =
    Fun.protect ~finally:(fun () -> teardown s) @@ fun () ->
    let c_start = read_counters () in
    if not cfg.trace then begin
      let passes = measure ~label:"measured" ~seconds:cfg.seconds (run_pass s) in
      (passes, budget_guard c_start (read_counters ()), None)
    end
    else begin
      let half = cfg.seconds /. 2.0 in
      let untraced = measure ~label:"untraced" ~seconds:half (run_pass s) in
      Obs.Span.clear ();
      Obs.Span.set_enabled true;
      let c0 = read_counters () in
      let traced =
        measure ~label:"traced" ~first:(List.length untraced) ~seconds:half
          (run_pass s)
      in
      let c1 = read_counters () in
      Obs.Span.set_enabled false;
      ( untraced @ traced,
        budget_guard c_start c1,
        Some (per_layer ~concurrent ~untraced ~traced ~c0 ~c1) )
    end
  in
  let (passes, guard, layers) = measured () in
  let metrics =
    match layers with
    | Some m -> m
    | None ->
      let (last, later) = repeat_setup ~times:setups_after ~teardown setup in
      teardown last;
      end_to_end ~concurrent ~setup_walls:(walls @ later) ~passes
  in
  print_result ~passes ~extra_failed:guard metrics
