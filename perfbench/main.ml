(* Benchmark entry point:
     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]
   prints one line per measured pass, a summary, and as its last line
   the JSON result.  See README.md. *)

let workloads =
  [ ("arm_flow", Arm_flow.run);
    ("serve_mix", Serve_mix.run) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0
  and quick = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--quick", Arg.Set quick, " toy sizes, for the self-test") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    Printf.eprintf "unknown workload %S (expected %s)\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some run ->
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
      exit 2
    end;
    run
      { Harness.seed = !seed;
        seconds = float_of_int !seconds;
        trace = !trace = 1;
        quick = !quick }
