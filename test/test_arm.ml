(** Tests for the ARM benchmark design: structure (the Table 1 cast),
    instruction-level behaviour of the synthesized processor, and the
    Section 4.2 testability findings. *)

open Testutil

(* Instruction encoding: [15:12] opcode, [11:9] rd, [8:6] rn, [5:3] rm,
   [2:0] imm3. *)
let encode ~op ~rd ~rn ~rm ~imm =
  (op lsl 12) lor (rd lsl 9) lor (rn lsl 6) lor (rm lsl 3) lor imm

let add ~rd ~rn ~rm = encode ~op:0 ~rd ~rn ~rm ~imm:0
let sub ~rd ~rn ~rm = encode ~op:2 ~rd ~rn ~rm ~imm:0
let cmp ~rn ~rm = encode ~op:3 ~rd:0 ~rn ~rm ~imm:0
let eor ~rd ~rn ~rm = encode ~op:6 ~rd ~rn ~rm ~imm:0
let mov ~rd ~rm = encode ~op:7 ~rd ~rn:0 ~rm ~imm:0
let ldr ~rd ~rn ~imm = encode ~op:11 ~rd ~rn ~rm:0 ~imm
let str ~rm ~rn ~imm = encode ~op:12 ~rd:0 ~rn ~rm ~imm
let branch ~offset = (13 lsl 12) lor (offset land 255)
let beq ~offset = (14 lsl 12) lor (offset land 255)
let swi = 15 lsl 12
let nop = mov ~rd:0 ~rm:0

let arm_circuit =
  let c = lazy (
    let ed = Design.Elaborate.elaborate (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
    Synth.Lower.circuit_of ed Arm.Rtl.top)
  in
  fun () -> Lazy.force c

(* Run a program: a list of (instruction, mem_rdata for that cycle).
   Starts with one reset cycle.  Returns the simulator for inspection. *)
let quiet_pins =
  [ ("irq", 0); ("wd_kick", 0); ("wd_reload", 0); ("tx_start", 0);
    ("tx_data", 0); ("baud_div", 0); ("mac_en", 0); ("mac_clr", 0);
    ("mac_a", 0); ("mac_b", 0); ("trace_en", 0) ]

let run_program prog =
  let c = arm_circuit () in
  let sim = Sim.Eval.create c in
  let step binds =
    Sim.Eval.eval sim (Sim.Eval.pi_of_ports c (binds @ quiet_pins));
    Sim.Eval.tick sim
  in
  step [ ("rst", 1); ("inst", 0); ("mem_rdata", 0) ];
  List.iter
    (fun (inst, rdata) ->
      step [ ("rst", 0); ("inst", inst); ("mem_rdata", rdata) ])
    prog;
  sim

(* Observe an output during the cycle after the given program (without
   clocking past it). *)
let observe prog inst out =
  let c = arm_circuit () in
  let sim = run_program prog in
  Sim.Eval.eval sim
    (Sim.Eval.pi_of_ports c
       (( ("rst", 0) :: ("inst", inst) :: ("mem_rdata", 0) :: quiet_pins )));
  Sim.Eval.po_as_int sim out

(* Load a register from "memory": LDR rd, [r0+0] with the value driven on
   mem_rdata on the following cycle. *)
let load ~rd v = [ (ldr ~rd ~rn:0 ~imm:0, 0); (nop, v) ]

(* The load's write-back happens during the nop cycle whose mem_rdata
   carries the value; a second nop guarantees the register file is
   settled. *)
let load_regs pairs =
  List.concat_map (fun (rd, v) -> load ~rd v) ((0, 0) :: pairs) @ [ (nop, 0) ]

let structure_tests =
  [ test "design parses and elaborates" (fun () ->
        let d = Arm.Rtl.design () in
        check_bool "modules" true (List.length d.Verilog.Ast.modules >= 15));
    test "hierarchy levels match Table 1" (fun () ->
        let env = Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
        let level path =
          (Design.Hierarchy.find_path env.Factor.Compose.tree path)
            .Design.Hierarchy.nd_depth
        in
        check_int "arm_alu" 2 (level "u_dpath.u_alu");
        check_int "regfile_struct" 3 (level "u_dpath.u_regbank.u_rf");
        check_int "exc" 2 (level "u_ctrl.u_exc");
        check_int "forward" 2 (level "u_dpath.u_fwd"));
    test "no synthesis warnings" (fun () ->
        let ed = Design.Elaborate.elaborate (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
        let r = Synth.Lower.lower (Synth.Flatten.flatten ed Arm.Rtl.top) in
        check_bool "clean" true (r.Synth.Lower.warnings = []));
    test "regfile is the biggest module under test" (fun () ->
        let env = Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
        let full = Factor.Flow.full_circuit env in
        let gates spec =
          (Factor.Flow.characteristics env ~full spec).Factor.Flow.ch_module_gates
        in
        let by_name n =
          List.find (fun s -> s.Factor.Flow.ms_name = n) Arm.Rtl.muts
        in
        let rf = gates (by_name "regfile_struct") in
        List.iter
          (fun s ->
            if s.Factor.Flow.ms_name <> "regfile_struct" then
              check_bool "smaller" true (gates s < rf))
          Arm.Rtl.muts);
    test "alu has 13 one-bit control inputs" (fun () ->
        let env = Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
        let em = Design.Elaborate.find_emodule env.Factor.Compose.ed "arm_alu" in
        let one_bit_inputs =
          List.filter
            (fun p ->
              Design.Elaborate.signal_width (Design.Elaborate.signal_of em p) = 1)
            (Design.Elaborate.inputs_of em)
        in
        check_int "thirteen" 13 (List.length one_bit_inputs)) ]

let isa_tests =
  [ test "pc increments" (fun () ->
        check_out "three cycles" 3
          (observe [ (nop, 0); (nop, 0); (nop, 0) ] nop "pc_out"));
    test "load then add then store" (fun () ->
        let prog =
          load_regs [ (1, 55); (2, 13) ]
          @ [ (add ~rd:3 ~rn:1 ~rm:2, 0); (nop, 0) ]
        in
        (* store r3 to address r0+1: observe the write port *)
        let st = str ~rm:3 ~rn:0 ~imm:1 in
        check_out "mem_wdata" 68 (observe prog st "mem_wdata");
        check_out "mem_addr" 1 (observe prog st "mem_addr");
        check_out "mem_we" 1 (observe prog st "mem_we"));
    test "sub and eor" (fun () ->
        let prog =
          load_regs [ (1, 100); (2, 37) ]
          @ [ (sub ~rd:3 ~rn:1 ~rm:2, 0); (nop, 0) ]
        in
        check_out "100-37" 63 (observe prog (str ~rm:3 ~rn:0 ~imm:0) "mem_wdata");
        let prog2 =
          load_regs [ (1, 0xF0F0); (2, 0x0FF0) ]
          @ [ (eor ~rd:3 ~rn:1 ~rm:2, 0); (nop, 0) ]
        in
        check_out "xor" 0xFF00 (observe prog2 (str ~rm:3 ~rn:0 ~imm:0) "mem_wdata"));
    test "logical shift left by immediate" (fun () ->
        let prog =
          load_regs [ (1, 3) ]
          @ [ (encode ~op:9 ~rd:2 ~rn:0 ~rm:1 ~imm:4, 0); (nop, 0) ]
        in
        check_out "3 << 4" 48 (observe prog (str ~rm:2 ~rn:0 ~imm:0) "mem_wdata"));
    test "mov copies register" (fun () ->
        let prog =
          load_regs [ (4, 1234) ] @ [ (mov ~rd:5 ~rm:4, 0); (nop, 0) ]
        in
        check_out "copied" 1234 (observe prog (str ~rm:5 ~rn:0 ~imm:0) "mem_wdata"));
    test "forwarding covers back-to-back dependency" (fun () ->
        let prog =
          load_regs [ (1, 10); (2, 20) ]
          @ [ (add ~rd:3 ~rn:1 ~rm:2, 0);
              (* uses r3 immediately: must forward 30 *)
              (add ~rd:4 ~rn:3 ~rm:1, 0);
              (nop, 0) ]
        in
        check_out "30+10" 40 (observe prog (str ~rm:4 ~rn:0 ~imm:0) "mem_wdata"));
    test "unconditional branch" (fun () ->
        (* after reset, 2 nops bring pc to 2; branch with offset 8 jumps
           to 2+8 = 10 *)
        let prog = [ (nop, 0); (nop, 0); (branch ~offset:8, 0) ] in
        check_out "pc" 10 (observe prog nop "pc_out"));
    test "beq taken on equal" (fun () ->
        let prog =
          load_regs [ (1, 5); (2, 5) ]
          @ [ (cmp ~rn:1 ~rm:2, 0); (beq ~offset:16, 0) ]
        in
        (* pc at the beq cycle: 7 load cycles + cmp = pc 8; target 8+16 = 24 *)
        check_out "taken" 24 (observe prog nop "pc_out"));
    test "beq not taken on difference" (fun () ->
        let prog =
          load_regs [ (1, 5); (2, 6) ]
          @ [ (cmp ~rn:1 ~rm:2, 0); (beq ~offset:16, 0) ]
        in
        check_out "fell through" 9 (observe prog nop "pc_out"));
    test "cmp sets zero flag" (fun () ->
        let prog =
          load_regs [ (1, 9); (2, 9) ] @ [ (cmp ~rn:1 ~rm:2, 0); (nop, 0) ]
        in
        (match observe prog nop "flags_out" with
         | Some flags -> check_int "z bit" 1 ((flags lsr 2) land 1)
         | None -> Alcotest.fail "flags unknown"));
    test "swi redirects to vector 8" (fun () ->
        let prog = [ (nop, 0); (swi, 0) ] in
        check_out "vector" 8 (observe prog nop "pc_out"));
    test "irq redirects to vector 6" (fun () ->
        let c = arm_circuit () in
        let sim = run_program [ (nop, 0) ] in
        (* raise irq for one cycle, then let the exception be taken *)
        Sim.Eval.eval sim
          (Sim.Eval.pi_of_ports c
             [ ("rst", 0); ("irq", 1); ("inst", nop); ("mem_rdata", 0) ]);
        Sim.Eval.tick sim;
        Sim.Eval.eval sim
          (Sim.Eval.pi_of_ports c
             [ ("rst", 0); ("irq", 0); ("inst", nop); ("mem_rdata", 0) ]);
        Sim.Eval.tick sim;
        Sim.Eval.eval sim
          (Sim.Eval.pi_of_ports c
             [ ("rst", 0); ("irq", 0); ("inst", nop); ("mem_rdata", 0) ]);
        check_bool "pc went to 6" true
          (Sim.Eval.po_as_int sim "pc_out" = Some 6));
    test "watchdog counts down" (fun () ->
        let prog = List.init 5 (fun _ -> (nop, 0)) in
        (match observe prog nop "wd_count" with
         | Some v -> check_int "65535 - 5" (65535 - 5) v
         | None -> Alcotest.fail "wd_count unknown"));
    test "mac accumulates" (fun () ->
        let c = arm_circuit () in
        let sim = Sim.Eval.create c in
        let step binds =
          Sim.Eval.eval sim (Sim.Eval.pi_of_ports c binds);
          Sim.Eval.tick sim
        in
        let quiet k = k @ List.filter (fun (n, _) -> not (List.mem_assoc n k)) quiet_pins in
        step (quiet [ ("rst", 1) ]);
        step (quiet [ ("rst", 0); ("mac_en", 1); ("mac_a", 100); ("mac_b", 200) ]);
        step (quiet [ ("rst", 0); ("mac_en", 1); ("mac_a", 3); ("mac_b", 5) ]);
        Sim.Eval.eval sim (Sim.Eval.pi_of_ports c (quiet [ ("rst", 0); ("mac_en", 0) ]));
        check_bool "acc = 20015" true
          (Sim.Eval.po_as_int sim "mac_lo" = Some 20015)) ]

let testability_tests =
  [ test "ten of thirteen alu controls are hard-coded" (fun () ->
        let env = Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
        let found =
          Factor.Testability.hard_coded_inputs env ~mut_path:"u_dpath.u_alu"
        in
        check_int "ten flagged" 10 (List.length found);
        let flagged = List.map (fun h -> h.Factor.Testability.hc_input) found in
        List.iter
          (fun real -> check_bool (real ^ " not flagged") true
              (not (List.mem real flagged)))
          [ "cond_pass"; "set_flags"; "flag_c_in" ]);
    test "alu controls depend on the opcode" (fun () ->
        let env = Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
        let found =
          Factor.Testability.hard_coded_inputs env ~mut_path:"u_dpath.u_alu"
        in
        let c_add = List.find (fun h -> h.Factor.Testability.hc_input = "c_add") found in
        check_bool "opcode in controls" true
          (List.mem "opcode" c_add.Factor.Testability.hc_controls
           || List.mem "inst" c_add.Factor.Testability.hc_controls));
    test "undecoded capability has a single value" (fun () ->
        let env = Factor.Compose.make_env (Arm.Rtl.design ()) ~top:Arm.Rtl.top in
        let found =
          Factor.Testability.hard_coded_inputs env ~mut_path:"u_dpath.u_alu"
        in
        let h = List.find (fun h -> h.Factor.Testability.hc_input = "c_use_cf") found in
        check_int "always zero" 1 h.Factor.Testability.hc_values) ]

(* ------------------------------------------------------------------ *)
(* Assembler.                                                           *)
(* ------------------------------------------------------------------ *)

let all_instructions =
  [ Arm.Isa.Add (1, 2, 3); Arm.Isa.Mva (4, 5); Arm.Isa.Sub (7, 0, 1);
    Arm.Isa.Cmp (2, 3); Arm.Isa.And (1, 1, 1); Arm.Isa.Orr (0, 7, 6);
    Arm.Isa.Eor (5, 4, 3); Arm.Isa.Mov (6, 2); Arm.Isa.Mvn (3, 3);
    Arm.Isa.Lsl (2, 1, 7); Arm.Isa.Lsr (1, 2, 4); Arm.Isa.Ldr (0, 1, 3);
    Arm.Isa.Str (2, 3, 5); Arm.Isa.B 12; Arm.Isa.Beq (-4); Arm.Isa.Swi ]

let assembler_tests =
  [ test "encode/decode round trip" (fun () ->
        List.iter
          (fun i ->
            let i' = Arm.Isa.decode (Arm.Isa.encode i) in
            (* branch offsets wrap to 8 bits on decode *)
            (match (i, i') with
             | (Arm.Isa.Beq (-4), Arm.Isa.Beq 252) -> ()
             | _ ->
               check_bool (Arm.Isa.to_string i) true (i = i')))
          all_instructions);
    qtest "decode is stable under re-encoding" QCheck.(int_bound 65535)
      (fun w ->
        (* unused fields are dropped by encode, but the decoded meaning
           is a fixed point *)
        let i = Arm.Isa.decode w in
        Arm.Isa.decode (Arm.Isa.encode i) = i);
    test "out-of-range register rejected" (fun () ->
        match Arm.Isa.encode (Arm.Isa.Add (8, 0, 0)) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected rejection");
    test "assembler encoding matches the test encoder" (fun () ->
        check_int "add" (add ~rd:3 ~rn:1 ~rm:2)
          (Arm.Isa.encode (Arm.Isa.Add (3, 1, 2)));
        check_int "ldr" (ldr ~rd:1 ~rn:0 ~imm:0)
          (Arm.Isa.encode (Arm.Isa.Ldr (1, 0, 0)));
        check_int "nop" nop (Arm.Isa.encode Arm.Isa.nop));
    test "load_register idiom loads through the pipeline" (fun () ->
        let prog =
          List.map
            (fun cy -> (Arm.Isa.encode cy.Arm.Isa.cy_inst, cy.Arm.Isa.cy_rdata))
            (Arm.Isa.setup_registers [ (0, 0); (3, 321) ])
        in
        check_out "stored value" 321
          (observe prog (str ~rm:3 ~rn:0 ~imm:0) "mem_wdata"));
    test "disassembly strings" (fun () ->
        check_string "add" "add r1, r2, r3"
          (Arm.Isa.to_string (Arm.Isa.Add (1, 2, 3)));
        check_string "beq" "beq -4" (Arm.Isa.to_string (Arm.Isa.Beq (-4)))) ]

let () =
  Alcotest.run "arm"
    [ ("structure", structure_tests);
      ("isa", isa_tests);
      ("assembler", assembler_tests);
      ("testability", testability_tests) ]
