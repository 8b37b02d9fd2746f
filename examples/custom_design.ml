(** Using the library on your own design: a small memory-mapped UART SoC
    written from scratch (nothing shared with the ARM benchmark).  The
    module under test is the baud-rate generator, two levels deep.

    Run with: [dune exec examples/custom_design.exe] *)

let source =
  {|
  // ------------------------------------------------------------
  // baudgen: programmable rate divider -- the module under test.
  // ------------------------------------------------------------
  module baudgen (input clk, rst, input [7:0] divisor, output tick);
    reg [7:0] count;
    always @(posedge clk) begin
      if (rst) count <= 8'd0;
      else begin
        if (count == divisor) count <= 8'd0;
        else count <= count + 8'd1;
      end
    end
    assign tick = (count == divisor);
  endmodule

  // ------------------------------------------------------------
  // serializer: shifts a byte out at the baud tick.
  // ------------------------------------------------------------
  module serializer (input clk, rst, input tick, input load,
                     input [7:0] byte_in, output line, output idle);
    reg [8:0] shifter;
    reg [3:0] remaining;
    always @(posedge clk) begin
      if (rst) begin
        shifter <= 9'd511;
        remaining <= 4'd0;
      end else begin
        if (load & (remaining == 4'd0)) begin
          shifter <= {byte_in, 1'b0};
          remaining <= 4'd9;
        end else begin
          if (tick & (remaining != 4'd0)) begin
            shifter <= {1'b1, shifter[8:1]};
            remaining <= remaining - 4'd1;
          end
        end
      end
    end
    assign line = shifter[0];
    assign idle = (remaining == 4'd0);
  endmodule

  // ------------------------------------------------------------
  // uart: baud generator + serializer.
  // ------------------------------------------------------------
  module uart (input clk, rst, input [7:0] divisor, input load,
               input [7:0] byte_in, output line, output idle);
    wire tick;
    baudgen u_baud (.clk(clk), .rst(rst), .divisor(divisor), .tick(tick));
    serializer u_ser (.clk(clk), .rst(rst), .tick(tick), .load(load),
                      .byte_in(byte_in), .line(line), .idle(idle));
  endmodule

  // ------------------------------------------------------------
  // soc: the uart plus an unrelated event counter.
  // ------------------------------------------------------------
  module soc (input clk, rst, input [7:0] cfg_divisor, input send,
              input [7:0] tx_byte, input event_in,
              output tx_line, output tx_idle, output [15:0] event_count);
    reg [15:0] events;
    always @(posedge clk) begin
      if (rst) events <= 16'd0;
      else begin
        if (event_in) events <= events + 16'd1;
      end
    end
    assign event_count = events;
    uart u_uart (.clk(clk), .rst(rst), .divisor(cfg_divisor), .load(send),
                 .byte_in(tx_byte), .line(tx_line), .idle(tx_idle));
  endmodule
|}

let () =
  let design = Verilog.Parser.parse_design source in
  let env = Factor.Compose.make_env design ~top:"soc" in

  (* where does the baud generator sit? *)
  let node = Design.Hierarchy.find_path env.Factor.Compose.tree "u_uart.u_baud" in
  Printf.printf "module under test: %s at level %d\n"
    node.Design.Hierarchy.nd_module node.Design.Hierarchy.nd_depth;

  (* extract, reconstruct, synthesize *)
  let session = Factor.Compose.create_session () in
  let stats = Factor.Compose.compositional session env ~mut_path:"u_uart.u_baud" in
  let tf =
    Factor.Transform.build env stats.Factor.Compose.cs_slice
      ~mut_path:"u_uart.u_baud"
  in
  Printf.printf
    "transformed module: %d MUT gates + %d surrounding gates (event counter pruned)\n"
    tf.Factor.Transform.tf_mut_gates tf.Factor.Transform.tf_surrounding_gates;

  (* compare ATPG on the full soc vs the transformed module *)
  let cfg =
    { Atpg.Gen.default_config with g_max_frames = 6; g_total_budget = 60.0 }
  in
  let full =
    let ed = Design.Elaborate.elaborate design ~top:"soc" in
    (Synth.Lower.lower (Synth.Flatten.flatten ed "soc")).Synth.Lower.circuit
  in
  let raw_faults = Atpg.Fault.collapse full (Atpg.Fault.all ~within:"u_uart.u_baud" full) in
  let raw = Atpg.Gen.run full cfg raw_faults in

  let c = tf.Factor.Transform.tf_circuit in
  let tf_faults = Atpg.Fault.collapse c (Atpg.Fault.all ~within:"u_uart.u_baud" c) in
  let piers = Factor.Pier.identify c in
  let transformed = Atpg.Gen.run c { cfg with g_piers = piers } tf_faults in

  Printf.printf "ATPG at soc level:          %5.1f%% coverage, %5.2f s\n"
    raw.Atpg.Gen.r_coverage raw.Atpg.Gen.r_wall;
  Printf.printf "ATPG on transformed module: %5.1f%% coverage, %5.2f s\n"
    transformed.Atpg.Gen.r_coverage transformed.Atpg.Gen.r_wall;

  (* testability: the divisor is a real data input, nothing is flagged *)
  let findings = Factor.Testability.hard_coded_inputs env ~mut_path:"u_uart.u_baud" in
  Printf.printf "hard-coded inputs flagged: %d\n" (List.length findings)
