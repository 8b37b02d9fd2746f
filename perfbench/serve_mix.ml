(* serve_mix: the serve daemon with an on-disk store and a small LRU
   bound, driven by two closed-loop clients, each sending its next
   request only when the previous answer arrived.  Per pass, each
   client sends a fixed list of requests in a seeded order:

   - warm reads: atpg, extract and grade on three hot corpus designs,
     which stay resident;
   - warm-disk reads: the same ops on the other corpus designs and on
     generated designs, which the LRU keeps evicting, so they
     come back from the store;
   - cold writes: atpg, extract or grade on never-seen sources, which
     parse, elaborate, synthesize and write the store.

   Reads and writes run side by side, so a cache change that helps one
   at the other's cost shows.  The event loop hands requests to the pool
   and never runs them itself, so a pool of three slots gives two worker
   domains, one per client: both clients' requests are served at once.
   With two slots they would queue behind each other, and the latency
   figures would follow the interleaving more than the work.  One
   operation is one request.

   Every response is compared byte for byte, minus its cache-status
   fields, with a one-shot answer computed in set-up on a fresh daemon
   context.  A cold write renames the top module of a generated design
   (a new chain fingerprint, so a full cold build); its expected answer
   is the one-shot answer for the original, with the top's name put
   back where a dead-end trace prints it. *)

open Harness
module J = Obs.Json

let work_dir = "perfbench/.work"
let store_dir = Filename.concat work_dir "store"
let jobs = 3
let max_resident = 4
let clients = 2

(* Resident corpus designs; one LRU slot is left for the rest. *)
let hot_designs = [ "gcd"; "dma"; "scratchpad" ]

(* Every hot request is sent this many times per client and pass; the
   warm-disk and cold requests are split between the two clients. *)
let hot_repeat = 2

(* Generated designs: [warm_generated] join the corpus designs as read
   targets, [cold_bases] are renamed afresh for every cold write. *)
let warm_generated = 3
let cold_bases = 4

(* Generated hierarchies vary several-fold in size, so designs drawn
   per seed would let the seed, not the code, set the amount of work.
   The generated designs are fixed: a pool sorted by synthesized net
   count is cut into equal strata, and the middle design of each is
   taken.  The seed draws the grade vectors and the request order. *)
let strata = warm_generated + cold_bases
let per_stratum = 3
let pool_base = 7_000

(* One generated design per stratum, smallest stratum first. *)
let generated_designs () =
  let pool =
    List.init (strata * per_stratum) (fun i ->
        let g = Gen_rtl.Gen.generate ~seed:(pool_base + i) () in
        let nets =
          Netlist.num_nets (Gen_rtl.Gen.circuit_of g.d_ast ~top:g.d_top)
        in
        (nets, i, g))
    |> List.sort (fun (a, i, _) (b, j, _) -> compare (a, i) (b, j))
    |> Array.of_list
  in
  List.init strata (fun k ->
      let (_, _, g) = pool.((k * per_stratum) + (per_stratum / 2)) in
      g)

type template = {
  t_op : string;
  t_params : (string * J.t) list;  (* without the design parameters *)
  t_design : (string * J.t) list;  (* "design" or "source"/"top" *)
  t_top : string option;           (* set for cold bases: renamed per use *)
}

type expected = {
  x_body : string;                 (* normalized one-shot answer *)
  x_counts : (int * int * int) option;  (* detected, resolved, faults *)
}

type setup = {
  server : Serve.Server.t;
  plans : (template * expected) list array;  (* per client *)
  warm_files : string list;  (* the store after warm-up *)
}

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The daemon's atpg effort limits are fixed; only the wall budgets are
   request parameters, and they are set out of reach. *)
let atpg_params =
  [ ("budget", J.Float 1e9); ("fault_budget", J.Float 1e9); ("frames", J.Int 2);
    ("piers", J.Bool true) ]

(* Cache-status fields differ between cold, warm-mem and warm-disk
   answers by design; everything else must be byte-identical. *)
let normalize = function
  | J.Obj fields ->
    J.to_string
      (J.Obj (List.filter (fun (k, _) -> k <> "cache" && k <> "transform_cached") fields))
  | j -> J.to_string j

let counts_of result =
  match Option.bind (J.member "counts" result) J.to_string_opt with
  | None -> None
  | Some line ->
    Scanf.sscanf line "faults %d | detected %d | untestable %d"
      (fun f d u -> Some (d, d + u, f))

(* [replace_all s ~sub ~by] for a non-empty [sub]. *)
let replace_all s ~sub ~by =
  let n = String.length sub and len = String.length s in
  let buf = Buffer.create len in
  let rec go i =
    if i > len - n then Buffer.add_string buf (String.sub s i (len - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string buf by;
      go (i + n)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let params t ~fresh =
  let design =
    match (t.t_top, fresh) with
    | Some top, Some fresh ->
      List.map
        (function
          | ("source", J.String src) ->
            ( "source",
              J.String
                (replace_all src ~sub:("module " ^ top ^ " (")
                   ~by:("module " ^ fresh ^ " (")) )
          | ("top", _) -> ("top", J.String fresh)
          | kv -> kv)
        t.t_design
    | _ -> t.t_design
  in
  design @ t.t_params

(* One-shot answer: a fresh context with no store, one request. *)
let expect t =
  let answer =
    Serve.Ops.handle (Serve.Ops.make_ctx ())
      { Serve.Proto.rq_id = 1; rq_op = t.t_op; rq_params = J.Obj (params t ~fresh:None) }
  in
  (t, { x_body = normalize answer; x_counts = counts_of answer })

(* A request target: one MUT of one design, with seeded random vectors
   for grade requests. *)
type target = {
  design : (string * J.t) list;
  source : string;
  top : string;
  mut : string;
  vectors : string;
}

let target ~seed ~index ~design ~source ~top mut =
  let c = Gen_rtl.Gen.circuit_of (Verilog.Parser.parse_design source) ~top in
  let piers = Factor.Pier.identify c in
  let rng = Random.State.make [| 0x9ec7; seed; index |] in
  let tests =
    List.init 8 (fun _ ->
        Atpg.Pattern.random ~rng ~num_pis:(Netlist.num_pis c) ~frames:6 ~piers)
  in
  { design; source; top; mut;
    vectors = Atpg.Pattern.write_string ~pi_names:c.Netlist.pi_names tests }

let template ?(renamed = false) tg op =
  let extra =
    match op with
    | "atpg" -> atpg_params
    | "grade" -> [ ("vectors", J.String tg.vectors); ("piers", J.Bool true) ]
    | _ -> []
  in
  { t_op = op;
    t_params = ("mut", J.String tg.mut) :: extra;
    t_design =
      (if renamed then [ ("source", J.String tg.source); ("top", J.String tg.top) ]
       else tg.design);
    t_top = (if renamed then Some tg.top else None) }

(* The last [n] MUTs listed: for a generated design, the deepest. *)
let last n paths =
  let k = List.length paths in
  List.filteri (fun i _ -> i >= k - n) paths

(* ATPG on mcu8's modules takes seconds at the daemon's fixed effort
   limits, and on generated designs anywhere from milliseconds to tens
   of seconds; atpg requests go to the other corpus designs only. *)
let atpg_ok (e : Circuits.Collection.entry) = e.e_name <> "mcu8"

let connect (s : setup) = Serve.Client.connect_retry (Serve.Server.addr s.server)

let shuffle rng xs =
  List.map (fun x -> (Random.State.bits rng, x)) xs
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let build ~quick ~seed () =
  rm_rf work_dir;
  Unix.mkdir work_dir 0o755;
  let index = ref 0 in
  let targets ~design ~source ~top muts =
    List.map
      (fun mut ->
        incr index;
        target ~seed ~index:!index ~design ~source ~top mut)
      muts
  in
  let corpus =
    if quick then [ Circuits.Collection.arbiter ] else Circuits.Collection.all
  in
  let corpus_targets =
    List.map
      (fun (e : Circuits.Collection.entry) ->
        ( e,
          targets ~design:[ ("design", J.String ("@" ^ e.e_name)) ] ~source:e.e_source
            ~top:e.e_top
            (last 2 (List.map (fun (m : Factor.Flow.mut_spec) -> m.ms_path) e.e_muts)) ))
      corpus
  in
  (* alternate strata between read targets and cold bases, so both
     span the whole size range *)
  let generated =
    generated_designs ()
    |> List.map (fun (d : Gen_rtl.Gen.design) ->
        targets
          ~design:[ ("source", J.String d.d_source); ("top", J.String d.d_top) ]
          ~source:d.d_source ~top:d.d_top (last 1 d.d_muts))
  in
  let warm_gen = List.filteri (fun i _ -> i mod 2 = 1) generated in
  let cold_gen = List.filteri (fun i _ -> i mod 2 = 0) generated in
  (* read targets, one list of templates per design, tagged hot *)
  let reads =
    List.map
      (fun ((e : Circuits.Collection.entry), tgs) ->
        ( quick || List.mem e.e_name hot_designs,
          List.concat_map
          (fun tg ->
            List.map (fun op -> expect (template tg op))
              ((if atpg_ok e then [ "atpg" ] else []) @ [ "extract"; "grade" ]))
          tgs ))
      corpus_targets
    @ List.map
        (fun tgs ->
          ( false,
            List.concat_map
              (fun tg -> List.map (fun op -> expect (template tg op)) [ "extract"; "grade" ])
              tgs ))
        warm_gen
  in
  let cold =
    List.concat_map
      (fun (e, tgs) ->
        if atpg_ok e then
          [ expect (template ~renamed:true (List.hd tgs) "atpg") ]
        else [])
      corpus_targets
    @ List.concat_map
        (fun tgs ->
          List.concat_map
            (fun tg ->
              [ expect (template ~renamed:true tg "extract");
                expect (template ~renamed:true tg "grade") ])
            tgs)
        cold_gen
  in
  let rng = Random.State.make [| 0x5e7e; seed |] in
  let (hot, disk) = List.partition fst reads in
  let hot = List.concat_map snd hot and disk = List.concat_map snd disk in
  let half c = List.filteri (fun i _ -> i mod clients = c) in
  let plans =
    Array.init clients (fun c ->
        shuffle rng
          (List.concat (List.init (if quick then 1 else hot_repeat) (fun _ -> hot))
          @ half c disk @ half c cold))
  in
  let server =
    Serve.Server.start
      { Serve.Server.sc_addr = Serve.Server.Unix_path (Filename.concat work_dir "serve.sock");
        sc_store = Some store_dir;
        sc_max_resident = Some max_resident;
        sc_default_budget = None;
        sc_heartbeat_s = 0.0 }
  in
  let s = { server; plans; warm_files = [] } in
  (* warm-up: every read target once, so the store holds all of them *)
  let cl = connect s in
  List.iter
    (fun (t, _) ->
      ignore (Serve.Client.rpc cl ~op:t.t_op ~params:(params t ~fresh:None)))
    (disk @ hot);
  Serve.Client.close cl;
  { s with warm_files = Array.to_list (Sys.readdir store_dir) }

(* The daemon restats its whole store after every write, so each write
   costs time in proportion to the store's size, and the store only
   grows.  Left alone, later passes ran slower than earlier ones, and a
   run's median pass followed how many passes the host's speed let it
   fit.  After each pass the files its cold writes added, which no
   later request names, are removed, so every pass starts from the
   store warm-up left.  Returns the bytes removed. *)
let drop_cold_writes s =
  Array.fold_left
    (fun bytes f ->
      if List.mem f s.warm_files then bytes
      else begin
        let p = Filename.concat store_dir f in
        let size = (Unix.stat p).Unix.st_size in
        Sys.remove p;
        bytes + size
      end)
    0 (Sys.readdir store_dir)

let teardown s =
  Serve.Server.stop s.server;
  rm_rf work_dir

type sample = {
  latency : float;
  ok : bool;
  cold_write : bool;
  parsed : int;  (* source bytes the daemon parses: cold writes only *)
  counts : (int * int * int) option;
}

let run_client s ~pass ~client =
  let cl = connect s in
  Fun.protect ~finally:(fun () -> Serve.Client.close cl) @@ fun () ->
  List.mapi
    (fun k (t, x) ->
      let fresh =
        Option.map (fun top -> Printf.sprintf "%s_p%dc%dn%d" top pass client k) t.t_top
      in
      let params = params t ~fresh in
      let t0 = now () in
      let answer =
        try Some (Serve.Client.rpc cl ~op:t.t_op ~params) with _ -> None
      in
      let latency = now () -. t0 in
      let ok =
        match (answer, t.t_top, fresh) with
        | Some a, Some top, Some fresh ->
          replace_all (normalize a) ~sub:fresh ~by:top = x.x_body
        | Some a, _, _ -> normalize a = x.x_body
        | None, _, _ -> false
      in
      if not ok then
        Printf.eprintf "serve_mix: %s request %d of client %d differs (pass %d)\n%!"
          t.t_op k client pass;
      let parsed =
        match (fresh, List.assoc_opt "source" params) with
        | Some _, Some (J.String src) -> String.length src
        | _ -> 0
      in
      { latency; ok; cold_write = fresh <> None; parsed; counts = x.x_counts })
    s.plans.(client)

let run_pass s pass =
  let t0 = now () in
  let others =
    List.init (clients - 1) (fun c ->
        Domain.spawn (fun () -> run_client s ~pass ~client:(c + 1)))
  in
  let mine = run_client s ~pass ~client:0 in
  let samples = mine @ List.concat_map Domain.join others in
  let wall = now () -. t0 in
  let store_bytes = drop_cold_writes s in
  let count f = List.length (List.filter f samples) in
  let counts f =
    List.fold_left
      (fun a x -> match x.counts with Some c -> a + f c | None -> a)
      0 samples
  in
  { p_wall = wall;
    p_ops = List.map (fun x -> x.latency) samples;
    p_attempted = List.length samples;
    p_failed = count (fun x -> not x.ok);
    p_designs = count (fun x -> x.cold_write);
    p_detected = counts (fun (d, _, _) -> d);
    p_resolved = counts (fun (_, r, _) -> r);
    p_faults = counts (fun (_, _, f) -> f);
    p_extra =
      [ ("client_s", sum (List.map (fun x -> x.latency) samples));
        ("bytes", float_of_int (List.fold_left (fun a x -> a + x.parsed) 0 samples));
        ("store_bytes", float_of_int store_bytes) ] }

let run (cfg : cfg) =
  Engine.Pool.set_jobs jobs;
  Phase.run cfg ~concurrent:true ~setup:(build ~quick:cfg.quick ~seed:cfg.seed)
    ~teardown run_pass
