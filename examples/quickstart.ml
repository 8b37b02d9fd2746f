(** Quickstart: the whole FACTOR flow on a small hierarchical design.

    Run with: [dune exec examples/quickstart.exe] *)

(* A toy system-on-chip: an accumulator core buried one level down, next
   to a blinker that has nothing to do with it. *)
let source =
  {|
  module accumulator (input clk, rst, input [7:0] x, output [7:0] total);
    reg [7:0] acc;
    always @(posedge clk) begin
      if (rst) acc <= 8'd0;
      else acc <= acc + x;
    end
    assign total = acc;
  endmodule

  module blinker (input clk, rst, output led);
    reg [3:0] divider;
    always @(posedge clk) begin
      if (rst) divider <= 4'd0;
      else divider <= divider + 4'd1;
    end
    assign led = divider[3];
  endmodule

  module soc (input clk, rst, input [7:0] data, output [7:0] sum, output led);
    wire [7:0] gated;
    assign gated = data & 8'd127;      // the core never sees bit 7
    accumulator u_acc (.clk(clk), .rst(rst), .x(gated), .total(sum));
    blinker u_led (.clk(clk), .rst(rst), .led(led));
  endmodule
|}

let () =
  (* 1. parse and elaborate *)
  let design = Verilog.Parser.parse_design source in
  let env = Factor.Compose.make_env design ~top:"soc" in
  print_endline "1. parsed: soc with an accumulator and a blinker";

  (* 2. extract the ATPG view of the accumulator *)
  let session = Factor.Compose.create_session () in
  let stats = Factor.Compose.compositional session env ~mut_path:"u_acc" in
  Printf.printf "2. extracted constraints: %d sites kept, %.4f s\n"
    (Factor.Slice.cardinal stats.Factor.Compose.cs_slice)
    stats.Factor.Compose.cs_extraction_time;

  (* 3. build + synthesize the transformed module; the blinker is gone *)
  let tf = Factor.Transform.build env stats.Factor.Compose.cs_slice ~mut_path:"u_acc" in
  Printf.printf
    "3. transformed module: %d MUT gates, %d surrounding gates (blinker pruned)\n"
    tf.Factor.Transform.tf_mut_gates tf.Factor.Transform.tf_surrounding_gates;

  (* 4. the extracted constraints are ordinary Verilog *)
  print_endline "4. extracted environment as Verilog:";
  print_string
    (Verilog.Pp.design_to_string tf.Factor.Transform.tf_design);

  (* 5. run test generation on the transformed module *)
  let c = tf.Factor.Transform.tf_circuit in
  let faults = Atpg.Fault.collapse c (Atpg.Fault.all ~within:"u_acc" c) in
  let piers = Factor.Pier.identify c in
  let cfg = { Atpg.Gen.default_config with g_piers = piers } in
  let r = Atpg.Gen.run c cfg faults in
  Printf.printf
    "5. ATPG: %d faults, %.1f%% coverage, %d test vectors, %.2f s\n"
    r.Atpg.Gen.r_total r.Atpg.Gen.r_coverage r.Atpg.Gen.r_vectors
    r.Atpg.Gen.r_wall;

  (* 6. print one generated test *)
  (match r.Atpg.Gen.r_tests with
   | t :: _ ->
     Printf.printf "6. first test sequence (one vector per clock): %s\n"
       (Atpg.Pattern.to_string t)
   | [] -> print_endline "6. random patterns covered everything")
