(** Tests for the three-valued parallel-pattern logic and the levelized
    simulator. *)

open Testutil
module L = Sim.Logic3

(* Encode an optional bool at pattern position 0. *)
let v = function
  | Some true -> L.one
  | Some false -> L.zero
  | None -> L.x

let get0 a = L.get a 0

let opt3 =
  QCheck.oneofl [ Some true; Some false; None ]

(* Reference three-valued operators. *)
let ref_and a b =
  match (a, b) with
  | (Some false, _) | (_, Some false) -> Some false
  | (Some true, Some true) -> Some true
  | _ -> None

let ref_or a b =
  match (a, b) with
  | (Some true, _) | (_, Some true) -> Some true
  | (Some false, Some false) -> Some false
  | _ -> None

let ref_not = Option.map not

let ref_xor a b =
  match (a, b) with
  | (Some a, Some b) -> Some (a <> b)
  | _ -> None

let ref_mux s a b =
  match s with
  | Some false -> a
  | Some true -> b
  | None -> (match (a, b) with
             | (Some x, Some y) when x = y -> Some x
             | _ -> None)

(* A word holding [vs] in lanes 0, 1, ... *)
let word_of vs =
  fst (List.fold_left (fun (w, i) v -> (L.set w i v, i + 1)) (L.x, 0) vs)

let both_rails r = r.L.hi land r.L.lo

let logic3_tests =
  [ qtest "and matches reference" QCheck.(pair opt3 opt3) (fun (a, b) ->
        get0 (L.v_and (v a) (v b)) = ref_and a b);
    qtest "or matches reference" QCheck.(pair opt3 opt3) (fun (a, b) ->
        get0 (L.v_or (v a) (v b)) = ref_or a b);
    qtest "xor matches reference" QCheck.(pair opt3 opt3) (fun (a, b) ->
        get0 (L.v_xor (v a) (v b)) = ref_xor a b);
    qtest "not matches reference" opt3 (fun a ->
        get0 (L.v_not (v a)) = ref_not a);
    qtest "mux matches reference" QCheck.(triple opt3 opt3 opt3)
      (fun (s, a, b) -> get0 (L.v_mux (v s) (v a) (v b)) = ref_mux s a b);
    qtest "no rail overlap"
      QCheck.(triple opt3 opt3 opt3)
      (fun (s, a, b) ->
        let r = L.v_mux (v s) (L.v_and (v a) (v b)) (L.v_xor (v a) (v b)) in
        r.L.hi land r.L.lo = 0);
    qtest "de morgan" QCheck.(pair opt3 opt3) (fun (a, b) ->
        L.equal
          (L.v_not (L.v_and (v a) (v b)))
          (L.v_or (L.v_not (v a)) (L.v_not (v b))));
    test "set and get per pattern" (fun () ->
        let a = L.set (L.set L.x 3 (Some true)) 7 (Some false) in
        check_bool "bit 3" true (L.get a 3 = Some true);
        check_bool "bit 7" true (L.get a 7 = Some false);
        check_bool "bit 0 stays x" true (L.get a 0 = None));
    test "diff mask" (fun () ->
        let a = L.set L.x 1 (Some true) in
        let b = L.set L.x 1 (Some false) in
        check_bool "differ at 1" true (L.diff a b = 2);
        check_bool "x does not differ" true (L.diff L.x L.one = 0));
    test "to_string" (fun () ->
        let a = L.set (L.set L.x 0 (Some true)) 2 (Some false) in
        check_string "render" "xxxxx0x1" (L.to_string a));
    qtest "all lanes match the truth tables" ~count:300
      QCheck.(list_of_size (Gen.int_bound Sim.Packed.width) (triple opt3 opt3 opt3))
      (fun triples ->
        let sw = word_of (List.map (fun (s, _, _) -> s) triples) in
        let aw = word_of (List.map (fun (_, a, _) -> a) triples) in
        let bw = word_of (List.map (fun (_, _, b) -> b) triples) in
        let results =
          [ (L.v_and aw bw); (L.v_or aw bw); (L.v_xor aw bw); (L.v_not aw);
            (L.v_mux sw aw bw) ]
        in
        List.for_all (fun r -> both_rails r = 0) results
        && List.for_all
             (fun (i, (s, a, b)) ->
               L.get (L.v_and aw bw) i = ref_and a b
               && L.get (L.v_or aw bw) i = ref_or a b
               && L.get (L.v_xor aw bw) i = ref_xor a b
               && L.get (L.v_not aw) i = ref_not a
               && L.get (L.v_mux sw aw bw) i = ref_mux s a b)
             (List.mapi (fun i t -> (i, t)) triples));
    qtest "diff/known flag exactly the binary lanes" ~count:300
      QCheck.(list_of_size (Gen.int_bound Sim.Packed.width) (pair opt3 opt3))
      (fun pairs ->
        let aw = word_of (List.map fst pairs) in
        let bw = word_of (List.map snd pairs) in
        List.for_all
          (fun (i, (a, b)) ->
            let bit m = m land (1 lsl i) <> 0 in
            bit (L.known aw) = Option.is_some a
            && bit (L.diff aw bw)
               = (match (a, b) with
                  | (Some x, Some y) -> x <> y
                  | _ -> false))
          (List.mapi (fun i p -> (i, p)) pairs)) ]

(* ------------------------------------------------------------------ *)
(* Simulator.                                                          *)
(* ------------------------------------------------------------------ *)

let sim_tests =
  [ test "uninitialized state reads X" (fun () ->
        let c =
          circuit
            {|module top (input clk, input [3:0] d, output reg [3:0] q);
              always @(posedge clk) q <= d; endmodule|}
        in
        let sim = Sim.Eval.create c in
        Sim.Eval.eval sim (Sim.Eval.pi_of_ports c [ ("d", 5) ]);
        check_bool "q unknown before any tick" true
          (Sim.Eval.po_as_int sim "q" = None));
    test "x clears after load" (fun () ->
        let c =
          circuit
            {|module top (input clk, input [3:0] d, output reg [3:0] q);
              always @(posedge clk) q <= d; endmodule|}
        in
        check_out "loaded" 5 (run_seq c [ [ ("d", 5) ] ] "q"));
    test "x propagates through muxes conservatively" (fun () ->
        (* q unknown, but both branches equal: output known *)
        let c =
          circuit
            {|module top (input clk, input s, input [3:0] d,
                          output [3:0] y, output reg [3:0] q);
              always @(posedge clk) q <= d;
              assign y = s ? (q & 4'd0) : 4'd0; endmodule|}
        in
        check_out "known zero despite x state" 0 (eval_out c [ ("s", 1) ] "y"));
    test "64 patterns evaluate independently" (fun () ->
        let c =
          circuit
            {|module top (input a, b, output y); assign y = a ^ b; endmodule|}
        in
        let sim = Sim.Eval.create c in
        (* pattern i: a = bit i of 0xF0F0.., b = bit i of 0xFF00.. *)
        let a = L.of_bits ~value:0x00F0 ~known:(-1) in
        let b = L.of_bits ~value:0x0F00 ~known:(-1) in
        Sim.Eval.eval sim [| a; b |];
        let y = (Sim.Eval.outputs sim).(0) in
        check_bool "xor per pattern" true
          (y.L.hi = 0x0FF0));
    test "counter counts" (fun () ->
        let c =
          circuit
            {|module top (input clk, rst, output reg [7:0] q);
              always @(posedge clk) begin
                if (rst) q <= 8'd0; else q <= q + 8'd1;
              end endmodule|}
        in
        let frames = [ ("rst", 1) ] :: List.init 5 (fun _ -> [ ("rst", 0) ]) in
        check_out "five increments" 5 (run_seq c frames "q"));
    test "po_as_int on missing port is none" (fun () ->
        let c = circuit "module top (input a, output y); assign y = a; endmodule" in
        let sim = Sim.Eval.create c in
        Sim.Eval.eval sim (Sim.Eval.pi_of_ports c [ ("a", 1) ]);
        check_bool "missing" true (Sim.Eval.po_as_int sim "ghost" = None));
    test "step returns pre-edge outputs" (fun () ->
        let c =
          circuit
            {|module top (input clk, input d, output y, output reg q);
              always @(posedge clk) q <= d;
              assign y = d; endmodule|}
        in
        let sim = Sim.Eval.create c in
        let outs = Sim.Eval.step sim (Sim.Eval.pi_of_ports c [ ("d", 1) ]) in
        (* y reflects d immediately; q is still X in the same cycle *)
        let find name =
          let found = ref L.x in
          Array.iteri
            (fun i n -> if n = name then found := outs.(i))
            c.Netlist.po_names;
          !found
        in
        check_bool "y known" true (L.get (find "y") 0 = Some true);
        check_bool "q still x" true (L.get (find "q") 0 = None));
    test "reset_state returns to X" (fun () ->
        let c =
          circuit
            {|module top (input clk, input [3:0] d, output reg [3:0] q);
              always @(posedge clk) q <= d; endmodule|}
        in
        let sim = Sim.Eval.create c in
        Sim.Eval.eval sim (Sim.Eval.pi_of_ports c [ ("d", 3) ]);
        Sim.Eval.tick sim;
        Sim.Eval.reset_state sim;
        Sim.Eval.eval sim (Sim.Eval.pi_of_ports c [ ("d", 3) ]);
        check_bool "q is X again" true (Sim.Eval.po_as_int sim "q" = None));
    test "hook overrides only hooked nets, and the fanout sees it" (fun () ->
        let c =
          circuit
            {|module top (input a, b, output y, z);
              assign y = !(a & b); assign z = a; endmodule|}
        in
        let sim = Sim.Eval.create c in
        let a = c.Netlist.pis.(0) in
        let hooked = Array.make (Netlist.num_nets c) false in
        hooked.(a) <- true;
        let calls = ref [] in
        (* column 1 sees a stuck at 0 *)
        let at net v =
          calls := net :: !calls;
          L.set v 1 (Some false)
        in
        Sim.Eval.eval ~hook:{ Sim.Eval.hooked; at } sim [| L.one; L.one |];
        check_bool "called once, at the hooked net" true (!calls = [ a ]);
        let y = (Sim.Eval.outputs sim).(0) and z = (Sim.Eval.outputs sim).(1) in
        check_bool "good column unchanged" true (L.get y 0 = Some false);
        check_bool "faulty column propagates" true (L.get y 1 = Some true);
        check_bool "other columns unchanged" true (L.get z 2 = Some true)) ]

(* ------------------------------------------------------------------ *)
(* VCD dump.                                                            *)
(* ------------------------------------------------------------------ *)

let vcd_tests =
  [ test "dump contains declarations and changes" (fun () ->
        let c =
          circuit
            {|module top (input clk, rst, output reg [1:0] q);
              always @(posedge clk) begin
                if (rst) q <= 2'd0; else q <= q + 2'd1;
              end endmodule|}
        in
        let sim = Sim.Eval.create c in
        let dump = Sim.Vcd.create sim in
        let step binds =
          Sim.Eval.eval sim (Sim.Eval.pi_of_ports c binds);
          Sim.Vcd.sample dump;
          Sim.Eval.tick sim
        in
        step [ ("rst", 1) ];
        step [ ("rst", 0) ];
        step [ ("rst", 0) ];
        let text = Sim.Vcd.contents dump in
        let contains needle =
          let rec go i =
            i + String.length needle <= String.length text
            && (String.sub text i (String.length needle) = needle || go (i + 1))
          in
          go 0
        in
        check_bool "header" true (contains "$enddefinitions");
        check_bool "declares q" true (contains "ff_q_0_");
        check_bool "has timestamps" true (contains "#0");
        check_bool "x state appears" true (contains "x"));
    test "unchanged signals emit once" (fun () ->
        let c = circuit "module top (input a, output y); assign y = a; endmodule" in
        let sim = Sim.Eval.create c in
        let dump = Sim.Vcd.create sim in
        for _ = 1 to 3 do
          Sim.Eval.eval sim (Sim.Eval.pi_of_ports c [ ("a", 1) ]);
          Sim.Vcd.sample dump
        done;
        let text = Sim.Vcd.contents dump in
        let count_ts =
          List.length
            (String.split_on_char '#' text) - 1
        in
        (* one declaration-free timestamp: later samples changed nothing *)
        check_int "single timestamp" 1 count_ts) ]

(* ------------------------------------------------------------------ *)
(* Packed batches: the pattern-to-lane transpose must place each test's
   bits in its own lane. *)

module P = Sim.Packed

let packed_tests =
  [ test "make_batch transposes ragged tests into lanes" (fun () ->
        (* test 0: one frame, PIs = 10; test 1: two frames, 01 then 11 *)
        let vectors =
          [| [| [| true; false |] |];
             [| [| false; true |]; [| true; true |] |] |]
        in
        let loads = [| [ (0, true) ]; [] |] in
        let b = P.make_batch ~num_pis:2 ~num_ffs:2 ~vectors ~loads in
        check_int "lanes" 2 b.P.b_lanes;
        check_int "frames" 2 b.P.b_frames;
        check_int "active frame 0" 0b11 b.P.b_active.(0);
        check_int "active frame 1" 0b10 b.P.b_active.(1);
        check_int "last frame 0" 0b01 b.P.b_last.(0);
        check_int "last frame 1" 0b10 b.P.b_last.(1);
        check_int "pi0 frame 0 hi" 0b01 b.P.b_pis.(0).(0).L.hi;
        check_int "pi0 frame 0 lo" 0b10 b.P.b_pis.(0).(0).L.lo;
        check_int "pi1 frame 0 hi" 0b10 b.P.b_pis.(0).(1).L.hi;
        check_int "pi1 frame 0 lo" 0b01 b.P.b_pis.(0).(1).L.lo;
        (* lane 0 is past its last frame at frame 1: X inputs *)
        check_int "pi0 frame 1 hi" 0b10 b.P.b_pis.(1).(0).L.hi;
        check_int "pi0 frame 1 lo" 0b00 b.P.b_pis.(1).(0).L.lo;
        (* register loads: ff0 loads 1 in lane 0 only, ff1 starts X *)
        check_int "ff0 load hi" 0b01 b.P.b_loads.(0).L.hi;
        check_int "ff0 load lo" 0b00 b.P.b_loads.(0).L.lo;
        check_int "ff1 load hi" 0b00 b.P.b_loads.(1).L.hi;
        check_int "ff1 load lo" 0b00 b.P.b_loads.(1).L.lo);
    test "make_batch rejects more tests than lanes" (fun () ->
        let vectors = Array.make (P.width + 1) [| [||] |] in
        let loads = Array.make (P.width + 1) [] in
        check_bool "raises" true
          (try
             ignore (P.make_batch ~num_pis:0 ~num_ffs:0 ~vectors ~loads);
             false
           with Invalid_argument _ -> true)) ]

let () =
  Alcotest.run "sim"
    [ ("logic3", logic3_tests); ("eval", sim_tests); ("vcd", vcd_tests);
      ("packed", packed_tests) ]
