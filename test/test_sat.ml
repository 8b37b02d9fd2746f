(* Tests for the SAT subsystem: solver unit tests, dual-rail CNF
   encoding vs. the 3-valued simulator, differential PODEM-vs-Satgen
   fuzzing, and exact equivalence checking. *)

let test name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Solver basics                                                       *)
(* ------------------------------------------------------------------ *)

let solver_trivial_sat () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s and b = Sat.Solver.new_var s in
  let open Sat.Solver in
  add_clause s [ pos a; pos b ];
  add_clause s [ neg (pos a); pos b ];
  (match solve s with
  | Sat -> ()
  | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check bool) "b forced by any model" true (value s b || value s a)

let solver_trivial_unsat () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  let open Sat.Solver in
  add_clause s [ pos a ];
  add_clause s [ neg (pos a) ];
  (match solve s with
  | Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT")

(* the pigeonhole principle PHP(n+1, n) is unsatisfiable and requires
   genuine search, exercising learning, backjumping and restarts *)
let solver_pigeonhole () =
  let n = 5 in
  let s = Sat.Solver.create () in
  let open Sat.Solver in
  (* var p.(i).(j): pigeon i sits in hole j, i in 0..n, j in 0..n-1 *)
  let p = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> new_var s)) in
  for i = 0 to n do
    add_clause s (List.init n (fun j -> pos p.(i).(j)))
  done;
  for j = 0 to n - 1 do
    for i = 0 to n do
      for i' = i + 1 to n do
        add_clause s [ neg (pos p.(i).(j)); neg (pos p.(i').(j)) ]
      done
    done
  done;
  (match solve s with
  | Unsat -> ()
  | _ -> Alcotest.fail "PHP(6,5) must be UNSAT");
  let st = stats s in
  Alcotest.(check bool) "searched" true (st.s_conflicts > 0)

(* a satisfiable instance with enough structure to exercise propagation:
   a chain of equivalences x0 <-> x1 <-> ... <-> xk plus a unit *)
let solver_chain () =
  let s = Sat.Solver.create () in
  let open Sat.Solver in
  let k = 200 in
  let xs = Array.init (k + 1) (fun _ -> new_var s) in
  for i = 0 to k - 1 do
    add_clause s [ neg (pos xs.(i)); pos xs.(i + 1) ];
    add_clause s [ pos xs.(i); neg (pos xs.(i + 1)) ]
  done;
  add_clause s [ pos xs.(0) ];
  (match solve s with
  | Sat -> ()
  | _ -> Alcotest.fail "chain is SAT");
  Alcotest.(check bool) "last var forced true" true (value s xs.(k))

let solver_assumptions () =
  let s = Sat.Solver.create () in
  let open Sat.Solver in
  let a = new_var s and b = new_var s and c = new_var s in
  (* a -> b, b -> c *)
  add_clause s [ neg (pos a); pos b ];
  add_clause s [ neg (pos b); pos c ];
  (match solve ~assumptions:[ pos a; neg (pos c) ] s with
  | Unsat -> ()
  | _ -> Alcotest.fail "a & ~c contradicts a->b->c");
  (* the clause database itself must remain satisfiable *)
  (match solve ~assumptions:[ pos a ] s with
  | Sat -> ()
  | _ -> Alcotest.fail "a alone is consistent");
  Alcotest.(check bool) "c implied by a" true (value s c);
  (match solve s with
  | Sat -> ()
  | _ -> Alcotest.fail "no assumptions is SAT")

(* random 3-SAT around the easy side of the phase transition, checked
   against a brute-force enumeration *)
let solver_random_3sat () =
  let rng = Random.State.make [| 0x5A7 |] in
  for _ = 1 to 40 do
    let nv = 8 + Random.State.int rng 5 in
    let nc = 2 * nv + Random.State.int rng (2 * nv) in
    let clauses =
      List.init nc (fun _ ->
          List.init 3 (fun _ ->
              let v = Random.State.int rng nv in
              let sgn = Random.State.bool rng in
              (v, sgn)))
    in
    let brute =
      let sat = ref false in
      for m = 0 to (1 lsl nv) - 1 do
        if
          (not !sat)
          && List.for_all
               (List.exists (fun (v, sgn) -> (m lsr v) land 1 = 1 == sgn))
               clauses
        then sat := true
      done;
      !sat
    in
    let s = Sat.Solver.create () in
    let open Sat.Solver in
    let vars = Array.init nv (fun _ -> new_var s) in
    List.iter
      (fun cl ->
        add_clause s (List.map (fun (v, sgn) -> lit_of vars.(v) sgn) cl))
      clauses;
    match (solve s, brute) with
    | Sat, true ->
      (* verify the model *)
      let ok =
        List.for_all
          (List.exists (fun (v, sgn) -> value s vars.(v) == sgn))
          clauses
      in
      Alcotest.(check bool) "model satisfies clauses" true ok
    | Unsat, false -> ()
    | Sat, false -> Alcotest.fail "solver SAT, brute force UNSAT"
    | Unsat, true -> Alcotest.fail "solver UNSAT, brute force SAT"
    | Unknown, _ -> Alcotest.fail "unexpected Unknown without limit"
  done

(* ------------------------------------------------------------------ *)
(* CNF encoding vs. the simulator                                      *)
(* ------------------------------------------------------------------ *)

module L = Sim.Logic3

(* Encode a random combinational circuit, pin the PI variables to a
   random binary vector by assumptions, and the decoded PO rails must
   match the 3-valued simulator on the same vector. *)
let cnf_matches_sim gm =
  let (_, c) = Fuzzgen.build gm in
  let num_pis = Netlist.num_pis c in
  let e = Sat.Cnf.create () in
  let pi_rails = Array.init num_pis (fun _ -> Sat.Cnf.fresh_binary e) in
  let assign net =
    match c.Netlist.drv.(net) with
    | Netlist.Pi i -> Some pi_rails.(i)
    | Netlist.Ff _ -> Some (Sat.Cnf.rails_x e)
    | _ -> None
  in
  let rails = Sat.Cnf.encode e c ~assign () in
  let sim = Sim.Eval.create c in
  let rng = Random.State.make [| Hashtbl.hash gm.Fuzzgen.gm_src + 11 |] in
  let trial () =
    let bits = Array.init num_pis (fun _ -> Random.State.bool rng) in
    let assumptions =
      List.init num_pis (fun i ->
          if bits.(i) then pi_rails.(i).Sat.Cnf.r1 else pi_rails.(i).Sat.Cnf.r0)
    in
    match Sat.Solver.solve ~assumptions (Sat.Cnf.solver e) with
    | Sat.Solver.Sat ->
      Sim.Eval.eval sim
        (Array.init num_pis (fun i -> if bits.(i) then L.one else L.zero));
      let outs = Sim.Eval.outputs sim in
      Array.for_all
        (fun ok -> ok)
        (Array.mapi
           (fun o po_net ->
             L.get outs.(o) 0
             = Sat.Cnf.rails_value e rails.(po_net))
           c.Netlist.pos)
    | _ -> false
  in
  List.for_all (fun _ -> trial ()) [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Differential: PODEM vs Satgen on random combinational circuits      *)
(* ------------------------------------------------------------------ *)

let cube_to_test (cube : Sat.Satgen.cube) =
  { Atpg.Pattern.p_vectors = cube.Sat.Satgen.tc_vectors;
    p_loads = cube.Sat.Satgen.tc_loads }

let cube_detects c fault cube =
  let observe = { Atpg.Fsim.ob_pos = true; ob_pier_ffs = [] } in
  let flags =
    Atpg.Fsim.run_test c ~observe ~faults:[| fault |] ~active:[| 0 |]
      (cube_to_test cube)
  in
  flags.(0)

(* Classification agreement per collapsed fault; SAT cubes must detect
   under the fault simulator.  A PODEM abort carries no verdict: the
   SAT answer then stands on its own — a cube is accepted only when the
   fault simulator confirms it.  With [strict], SAT may never give up
   (so every fault ends with a verified classification). *)
let engines_agree ?(strict = false) ~backtrack_limit c =
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all c) in
  List.for_all
    (fun f ->
      let pcfg =
        { Atpg.Podem.frames = 1; backtrack_limit; piers = []; seed = 1 }
      in
      let p = Atpg.Podem.run c pcfg f in
      let (s, _) =
        Sat.Satgen.run c ~net:f.Atpg.Fault.f_net ~stuck:f.Atpg.Fault.f_stuck
      in
      match (p, s) with
      | (Atpg.Podem.Detected _, Sat.Satgen.Cube cube) -> cube_detects c f cube
      | (Atpg.Podem.Exhausted, Sat.Satgen.Untestable _) -> true
      | (Atpg.Podem.Aborted, Sat.Satgen.Cube cube) -> cube_detects c f cube
      | (Atpg.Podem.Aborted, Sat.Satgen.Untestable _) -> true
      | (_, Sat.Satgen.Gave_up) -> not strict
      | _ -> false)
    faults

let podem_vs_satgen gm =
  let (_, c) = Fuzzgen.build gm in
  Netlist.num_ffs c = 0 && engines_agree ~backtrack_limit:20_000 c

(* The acceptance-criterion circuit: the ARM ALU standalone is purely
   combinational; whenever PODEM reaches a verdict SAT must match it,
   every SAT cube must detect under Fsim, and SAT may never give up
   (one ALU fault is in fact PODEM-intractable — seen aborted at a
   2M backtrack limit — and only SAT closes it, with a cube the fault
   simulator confirms). *)
let arm_alu_agreement () =
  let ed = Design.Elaborate.elaborate (Arm.Rtl.design ()) ~top:"arm_alu" in
  let c = Synth.Lower.circuit_of ed "arm_alu" in
  Alcotest.(check int) "combinational" 0 (Netlist.num_ffs c);
  Alcotest.(check bool) "podem and satgen agree on every collapsed fault"
    true
    (engines_agree ~strict:true ~backtrack_limit:20_000 c)

(* ------------------------------------------------------------------ *)
(* Equivalence checking                                                *)
(* ------------------------------------------------------------------ *)

let ec_rebuild_equal gm =
  let (_, c) = Fuzzgen.build gm in
  let rebuilt = Synth.Opt.rebuild c in
  fst (Sat.Ec.check c rebuilt) = Sat.Ec.Equal

let ec_detects_difference () =
  let mk op =
    let b = Netlist.create_builder () in
    let x = Netlist.add_pi b "x" and y = Netlist.add_pi b "y" in
    Netlist.add_po b "z" (op b x y);
    Netlist.finalize b
  in
  let a = mk Netlist.mk_and and o = mk Netlist.mk_or in
  (match Sat.Ec.check a o with
  | (Sat.Ec.Differ "z", _) -> ()
  | (v, _) ->
    Alcotest.failf "expected Differ z, got %s" (Sat.Ec.verdict_to_string v));
  match Sat.Ec.check a a with
  | (Sat.Ec.Equal, _) -> ()
  | (v, _) ->
    Alcotest.failf "expected Equal, got %s" (Sat.Ec.verdict_to_string v)

let qtest name ?(count = 30) arb prop =
  QCheck_alcotest.to_alcotest ~rand:(Testutil.qcheck_rand ())
    (QCheck.Test.make ~name ~count arb prop)

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          test "trivial sat" solver_trivial_sat;
          test "trivial unsat" solver_trivial_unsat;
          test "pigeonhole unsat" solver_pigeonhole;
          test "equivalence chain" solver_chain;
          test "assumptions" solver_assumptions;
          test "random 3-sat vs brute force" solver_random_3sat;
        ] );
      ( "cnf",
        [
          qtest "random comb rtl: encoding matches the simulator" ~count:30
            Fuzzgen.gen_comb_arbitrary cnf_matches_sim;
        ] );
      ( "satgen",
        [
          qtest "random comb rtl: podem and satgen agree per fault" ~count:15
            Fuzzgen.gen_comb_arbitrary podem_vs_satgen;
          test "arm alu: engines agree on every collapsed fault"
            arm_alu_agreement;
        ] );
      ( "ec",
        [
          qtest "random rtl: rebuild is SAT-equivalent" ~count:20
            Fuzzgen.gen_arbitrary ec_rebuild_equal;
          test "and vs or differ" ec_detects_difference;
        ] );
    ]
