(** Differential fuzzing of the synthesis pipeline: random well-formed
    RTL modules (from [Fuzzgen]) are pushed through parse -> elaborate ->
    flatten -> lower, and the gate-level simulation of the lowered
    netlist is checked against the independent word-level interpreter
    ([Synth.Interp]) on random stimulus.  Also checks pretty-printer
    round trips and optimizer equivalence on the same random
    population. *)

open Testutil
open Fuzzgen

let gates_match_interpreter gm =
  let (flat, circuit) = build gm in
  let interp = Synth.Interp.create flat in
  let sim = Sim.Eval.create circuit in
  Sim.Eval.zero_state sim;
  List.for_all
    (fun frame ->
      Synth.Interp.step interp (("clk", 0) :: frame);
      Sim.Eval.eval sim (Sim.Eval.pi_of_ports circuit (("clk", 0) :: frame));
      let ok =
        List.for_all
          (fun (o, _) ->
            Sim.Eval.po_as_int sim o = Some (Synth.Interp.output interp o))
          gm.gm_outputs
      in
      Synth.Interp.tick interp;
      Sim.Eval.tick sim;
      ok)
    (stimulus gm ~frames:6)

(* A fault simulator engine against the straight-line reference:
   identical detection flags on random circuits, fault lists and test
   sequences (random PIER loads and observations; flip-flops outside
   the loaded set start X, so X propagation is exercised throughout). *)
let fsim_matches_reference ~engine gm =
  let (_, circuit) = build gm in
  let seed = Hashtbl.hash gm.gm_src + 3 in
  let rng = Random.State.make [| seed |] in
  let all_faults = Atpg.Fault.all circuit in
  (* a random subset of the fault universe, in random order *)
  let faults =
    List.filter (fun _ -> Random.State.int rng 4 > 0) all_faults
  in
  let piers =
    List.filter
      (fun _ -> Random.State.bool rng)
      (List.init (Netlist.num_ffs circuit) Fun.id)
  in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let tests =
    List.init 4 (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis circuit)
          ~frames:(1 + Random.State.int rng 4) ~piers)
  in
  Atpg.Fsim.run ~engine circuit ~observe ~faults tests
  = Atpg.Fsim.run ~engine:Atpg.Fsim.Reference circuit ~observe ~faults tests

(* Word-boundary pattern counts for the packed engine: 1 (partial
   word), 63 (one full word), 64 (word + 1), 65, 127 (two words + 1).  Ragged frame counts inside each word stress the
   per-lane active/last masks. *)
let packed_word_boundaries gm =
  let (_, circuit) = build gm in
  let seed = Hashtbl.hash gm.gm_src + 11 in
  let rng = Random.State.make [| seed |] in
  let faults =
    List.filter (fun _ -> Random.State.int rng 3 > 0)
      (Atpg.Fault.all circuit)
  in
  let piers =
    List.filter
      (fun _ -> Random.State.bool rng)
      (List.init (Netlist.num_ffs circuit) Fun.id)
  in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  List.for_all
    (fun count ->
      let tests =
        List.init count (fun _ ->
            Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis circuit)
              ~frames:(1 + Random.State.int rng 3) ~piers)
      in
      Atpg.Fsim.run ~engine:Atpg.Fsim.Packed circuit ~observe ~faults
        tests
      = Atpg.Fsim.run ~engine:Atpg.Fsim.Reference circuit ~observe ~faults
          tests)
    [ 1; 63; 64; 65; 127 ]

(* Batch-boundary fault counts for the event engine, one test at a time:
   1 (partial batch), w - 1, w (one full batch), w + 1 and 2w + 1 active
   faults, w = [Sim.Packed.width] lanes.  The indices are drawn with
   repetition, so a circuit with few faults still fills every batch and
   one net is often armed in several lanes at once.  The reference
   oracle batches one lane fewer, so its boundaries fall elsewhere. *)
let event_batch_boundaries gm =
  let (_, circuit) = build gm in
  let seed = Hashtbl.hash gm.gm_src + 13 in
  let rng = Random.State.make [| seed |] in
  let faults = Array.of_list (Atpg.Fault.all circuit) in
  let nf = Array.length faults in
  let piers =
    List.filter
      (fun _ -> Random.State.bool rng)
      (List.init (Netlist.num_ffs circuit) Fun.id)
  in
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = piers } in
  let w = Sim.Packed.width in
  nf = 0
  || List.for_all
       (fun count ->
         let active = Array.init count (fun _ -> Random.State.int rng nf) in
         let test =
           Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis circuit)
             ~frames:(1 + Random.State.int rng 3) ~piers
         in
         let run engine =
           Atpg.Fsim.run_test ~engine circuit ~observe ~faults ~active test
         in
         run Atpg.Fsim.Event = run Atpg.Fsim.Reference)
       [ 1; w - 1; w; w + 1; (2 * w) + 1 ]

let fuzz_tests =
  [ qtest "random rtl: printer round trip" ~count:60 gen_arbitrary
      (fun gm ->
        let d = parse gm.gm_src in
        let s1 = Verilog.Pp.design_to_string d in
        let s2 = Verilog.Pp.design_to_string (parse s1) in
        String.equal s1 s2);
    qtest "random rtl: gates match the interpreter" ~count:60 gen_arbitrary
      gates_match_interpreter;
    qtest "random rtl: packed fsim matches the reference engine" ~count:60
      gen_arbitrary (fsim_matches_reference ~engine:Atpg.Fsim.Packed);
    qtest "random rtl: event-driven fsim matches the reference engine"
      ~count:60 gen_arbitrary (fsim_matches_reference ~engine:Atpg.Fsim.Event);
    qtest "random rtl: packed fsim at word-boundary pattern counts"
      ~count:12 gen_arbitrary packed_word_boundaries;
    qtest "random rtl: event fsim at batch-boundary fault counts" ~count:12
      gen_arbitrary event_batch_boundaries;
    qtest "random rtl: optimizer preserves behaviour" ~count:40 gen_arbitrary
      (fun gm ->
        let (_, circuit) = build gm in
        let rebuilt = Synth.Opt.rebuild circuit in
        let rng = Random.State.make [| Hashtbl.hash gm.gm_src + 1 |] in
        Synth.Opt.equivalent_exact ~rounds:4 ~cycles:4 ~rng circuit rebuilt
        = Synth.Opt.Equal);
    qtest "random rtl: extraction of the whole module is sound" ~count:20
      gen_arbitrary
      (fun gm ->
        (* wrap the fuzz module in a top, extract it as the MUT, and the
           transformed module must behave identically: the slice keeps
           every path *)
        let inputs_conn =
          String.concat ", "
            (List.map (fun (n, _) -> Printf.sprintf ".%s(%s)" n n)
               (("clk", 1) :: gm.gm_inputs))
        in
        let outputs_conn =
          String.concat ", "
            (List.map (fun (n, _) -> Printf.sprintf ".%s(%s)" n n)
               gm.gm_outputs)
        in
        let decl (n, w) kind =
          if w = 1 then Printf.sprintf "  %s %s;\n" kind n
          else Printf.sprintf "  %s [%d:0] %s;\n" kind (w - 1) n
        in
        let top_src =
          gm.gm_src
          ^ "module top (input clk"
          ^ String.concat ""
              (List.map
                 (fun (n, w) ->
                   if w = 1 then ", input " ^ n
                   else Printf.sprintf ", input [%d:0] %s" (w - 1) n)
                 gm.gm_inputs)
          ^ String.concat ""
              (List.map
                 (fun (n, w) ->
                   if w = 1 then ", output " ^ n
                   else Printf.sprintf ", output [%d:0] %s" (w - 1) n)
                 gm.gm_outputs)
          ^ ");\n"
          ^ String.concat "" (List.map (fun s -> decl s "wire") [])
          ^ Printf.sprintf "  fuzz u_mut (%s, %s);\nendmodule\n" inputs_conn
              outputs_conn
        in
        let env = Factor.Compose.make_env (parse top_src) ~top:"top" in
        let session = Factor.Compose.create_session () in
        let stats = Factor.Compose.compositional session env ~mut_path:"u_mut" in
        let tf = Factor.Transform.build env stats.Factor.Compose.cs_slice ~mut_path:"u_mut" in
        let full =
          let ed = env.Factor.Compose.ed in
          Synth.Lower.circuit_of ed ed.Design.Elaborate.ed_top
        in
        let rng = Random.State.make [| Hashtbl.hash gm.gm_src + 2 |] in
        Synth.Opt.equivalent ~rounds:4 ~cycles:4 ~rng full
          tf.Factor.Transform.tf_circuit
        = Synth.Opt.Equal) ]

let () = Alcotest.run "fuzz" [ ("fuzz", fuzz_tests) ]
