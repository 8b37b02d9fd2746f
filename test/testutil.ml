(** Shared helpers for the test suites. *)

let parse src = Verilog.Parser.parse_design src

let elaborate ?(top = "top") src =
  Design.Elaborate.elaborate (parse src) ~top

let circuit ?(top = "top") src =
  let ed = elaborate ~top src in
  Synth.Lower.circuit_of ed top

let circuit_and_warnings ?(top = "top") src =
  let ed = elaborate ~top src in
  let r = Synth.Lower.lower (Synth.Flatten.flatten ed top) in
  (r.Synth.Lower.circuit, r.Synth.Lower.warnings)

(** Evaluate a combinational circuit on integer port bindings and read an
    output port as an integer. *)
let eval_out c bindings out =
  let sim = Sim.Eval.create c in
  Sim.Eval.eval sim (Sim.Eval.pi_of_ports c bindings);
  Sim.Eval.po_as_int sim out

(** Step a sequential circuit through the given binding frames and read an
    output afterwards (evaluating with the last frame's inputs). *)
let run_seq c frames out =
  let sim = Sim.Eval.create c in
  let last = ref [] in
  List.iter
    (fun bindings ->
      last := bindings;
      Sim.Eval.eval sim (Sim.Eval.pi_of_ports c bindings);
      Sim.Eval.tick sim)
    frames;
  Sim.Eval.eval sim (Sim.Eval.pi_of_ports c !last);
  Sim.Eval.po_as_int sim out

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let check_out msg expected actual =
  Alcotest.(check (option int)) msg (Some expected) actual

let test name f = Alcotest.test_case name `Quick f

(** FACTOR_SEED: an explicit seed for every randomized suite, so a
    failure seen once (e.g. in CI) can be replayed exactly by exporting
    the printed value.  Unset (or unparsable) keeps the historical
    fixed streams. *)
let fuzz_seed =
  match Sys.getenv_opt "FACTOR_SEED" with
  | Some s -> Option.value (int_of_string_opt s) ~default:0
  | None -> 0

let () =
  if fuzz_seed <> 0 then
    Printf.printf "randomized suites seeded with FACTOR_SEED=%d\n%!" fuzz_seed

(** Fresh generation state for one qcheck test; every test gets its own
    state so the suite order cannot perturb replay. *)
let qcheck_rand () = Random.State.make [| 0x5eed; fuzz_seed |]

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ())
    (QCheck.Test.make ~count ~name gen prop)
