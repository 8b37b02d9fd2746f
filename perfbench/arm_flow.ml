(* arm_flow: the paper's flow on the bundled ARM — compositional
   extraction, transformed-module synthesis and hybrid ATPG with PIERs
   for every module under test, serially, with a fresh constraint
   session per pass.  One operation is one MUT; one pass is all four.

   Effort is bounded by counts only.  The wall budgets are set out of
   reach, so a faster engine changes the time and never the verdicts;
   the backtrack and conflict limits are chosen so that PODEM and SAT
   rescue each take at least about a fifth of the pass.  The ARM is a
   fixed input and the generator keeps its default seed, so the
   benchmark seed does not change this workload. *)

open Harness

let atpg_config =
  { Atpg.Gen.default_config with
    g_backtrack_limit = 40;
    g_sat_conflicts = 500;
    g_max_frames = 2;
    g_restarts = 1;
    g_fault_budget = 1e9;
    g_total_budget = 1e9;
    g_engine = Atpg.Gen.Hybrid;
    g_jobs = 1 }

(* Toy size for the self-test: the two smallest MUTs, tiny limits. *)
let quick_muts = [ "exc"; "forward" ]

type setup = {
  env : Factor.Compose.env;
  muts : (Factor.Flow.mut_spec * int) list;  (* with stand-alone faults *)
  cfg : Atpg.Gen.config;
}

let setup ~quick () =
  let env = Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
  let specs =
    List.filter
      (fun (s : Factor.Flow.mut_spec) ->
        (not quick) || List.mem s.ms_name quick_muts)
      Arm.Rtl.muts
  in
  let cfg =
    if quick then { atpg_config with g_backtrack_limit = 5; g_sat_conflicts = 50 }
    else atpg_config
  in
  { env;
    muts = List.map (fun s -> (s, Factor.Flow.standalone_fault_count env s)) specs;
    cfg }

(* Verdicts of the first pass; every later pass must reproduce them. *)
let first_verdicts : (string * Atpg.Gen.outcome list) list ref = ref []

(* Every fault the generator reports detected must be flagged when its
   tests are re-graded by the straight-line reference simulator, and
   the packed and event-driven simulators must flag the same faults. *)
let regrade_ok c ~piers (r : Atpg.Gen.result) =
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let grade engine faults = Atpg.Fsim.run ~engine c ~observe ~faults r.r_tests in
  let detected =
    List.filter_map
      (fun (f, o) -> if o = Atpg.Gen.Detected then Some f else None)
      r.r_outcomes
  in
  let all = List.map fst r.r_outcomes in
  Array.for_all Fun.id (grade Atpg.Fsim.Reference detected)
  && grade Atpg.Fsim.Packed all = grade Atpg.Fsim.Event all

let run_mut s index (spec, standalone) session =
  let mut_path = spec.Factor.Flow.ms_path in
  let (stats, t_x) =
    timed "bench.extract" (fun () ->
        Factor.Compose.compositional session s.env ~mut_path)
  in
  let (tf, t_t) =
    timed "bench.transform" (fun () ->
        Factor.Transform.build s.env stats.Factor.Compose.cs_slice ~mut_path)
  in
  let c = tf.Factor.Transform.tf_circuit in
  let ((r, piers), t_g) =
    timed "bench.atpg" (fun () ->
        let piers = Factor.Pier.identify c in
        let faults =
          Atpg.Fault.collapse c (Atpg.Fault.all ~within:mut_path c)
        in
        (Atpg.Gen.run c { s.cfg with g_piers = piers } faults, piers))
  in
  let verdicts = List.map snd r.r_outcomes in
  let ok =
    r.r_budget_skipped = 0
    &&
    if index = 0 then begin
      first_verdicts := (spec.ms_name, verdicts) :: !first_verdicts;
      regrade_ok c ~piers r
    end
    else List.assoc_opt spec.ms_name !first_verdicts = Some verdicts
  in
  if not ok then
    Printf.eprintf "arm_flow: %s failed its check on pass %d\n%!"
      spec.ms_name index;
  (* coverage against the stand-alone universe; faults the constraints
     tie away count toward effectiveness only (paper Tables 5/6) *)
  let universe = max standalone r.r_total in
  let latency = t_x +. t_t +. t_g in
  { p_wall = latency;
    p_ops = [ latency ];
    p_attempted = 1;
    p_failed = (if ok then 0 else 1);
    p_designs = 0;
    p_detected = r.r_detected;
    p_resolved = r.r_detected + r.r_untestable + (universe - r.r_total);
    p_faults = universe;
    p_extra =
      [ ("gates", float_of_int (tf.tf_mut_gates + tf.tf_surrounding_gates)) ] }

let run_pass s index =
  let session = Factor.Compose.create_session () in
  { (combine (List.map (fun m -> run_mut s index m session) s.muts)) with
    p_designs = 1 }

let run (cfg : cfg) =
  Engine.Pool.set_jobs 1;
  Phase.run cfg ~concurrent:false ~setup:(setup ~quick:cfg.quick) ~teardown:ignore
    run_pass
