(** Flat-directory blob store with atomic writes and versioned,
    digest-checked Marshal headers.  See the mli for the failure
    contract. *)

(* [st_entries] / [st_bytes] mirror what {!stats} would scan: counted
   once at {!open_}, then adjusted by each write or removal under
   [st_lock] — a write never rescans the directory. *)
type t = {
  st_dir : string;
  st_lock : Mutex.t;
  mutable st_entries : int;
  mutable st_bytes : int;
}

let dir t = t.st_dir

(* Identifies both the store layout and the Marshal producer: entries
   written by a different compiler build (whose Marshal format may
   differ), or by a layout without the payload digest, must read as
   misses, not as garbage values. *)
let magic = "FACTOR-STORE-2\n"

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  end

(* The store only ever grows (nothing evicts from disk), so its size is
   exactly the kind of number an operator wants on a dashboard: the
   gauges track the most recently touched store — the daemon opens
   exactly one. *)
let g_bytes = Obs.Metrics.gauge "factor.serve.store_bytes"
let g_entries = Obs.Metrics.gauge "factor.serve.store_entries"

let stats t =
  match Sys.readdir t.st_dir with
  | exception Sys_error _ -> (0, 0)
  | files ->
    Array.fold_left
      (fun (n, b) f ->
        (* dot-prefixed names are in-flight temp files, not entries *)
        if String.length f = 0 || f.[0] = '.' then (n, b)
        else
          match Unix.stat (Filename.concat t.st_dir f) with
          | { Unix.st_kind = Unix.S_REG; st_size; _ } -> (n + 1, b + st_size)
          | _ -> (n, b)
          | exception Unix.Unix_error _ -> (n, b))
      (0, 0) files

let publish_stats t =
  Obs.Metrics.set g_entries (float_of_int t.st_entries);
  Obs.Metrics.set g_bytes (float_of_int t.st_bytes)

(* Size of the entry at [path] if one exists. *)
let entry_size path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> Some st_size
  | _ | (exception Unix.Unix_error _) -> None

(* Run [change] (which writes or removes the entry at [path]) and
   account for the entry's size before and after. *)
let adjust t path change =
  Mutex.protect t.st_lock (fun () ->
      let before = entry_size path in
      Fun.protect change ~finally:(fun () ->
          let after = entry_size path in
          let count = function None -> 0 | Some _ -> 1 in
          let size = Option.value ~default:0 in
          t.st_entries <- t.st_entries + count after - count before;
          t.st_bytes <- t.st_bytes + size after - size before;
          publish_stats t))

let open_ d =
  mkdir_p d;
  if not (Sys.is_directory d) then
    raise (Sys_error (d ^ ": not a directory"));
  let t =
    { st_dir = d; st_lock = Mutex.create (); st_entries = 0; st_bytes = 0 }
  in
  let (n, b) = stats t in
  t.st_entries <- n;
  t.st_bytes <- b;
  publish_stats t;
  t

let check_key key =
  if key = "" then invalid_arg "Store: empty key";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> ()
      | _ -> invalid_arg (Printf.sprintf "Store: unsafe key %S" key))
    key

let path t key =
  check_key key;
  Filename.concat t.st_dir key

let put t ~key s =
  let final = path t key in
  let tmp =
    Filename.temp_file ~temp_dir:t.st_dir ("." ^ key) ".tmp"
  in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc s);
    adjust t final (fun () -> Sys.rename tmp final)
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let get t ~key =
  let p = path t key in
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Some (really_input_string ic (in_channel_length ic)) with
        | Sys_error _ | End_of_file -> None)

let header = magic ^ Sys.ocaml_version ^ "\n"

(* An entry is [header], the [Digest] of the payload, then the Marshal
   payload.  [Marshal.from_string] trusts its input — a flipped bit
   inside a well-formed blob can yield an ill-typed value or a crash —
   so the payload is unmarshalled only once its digest matches. *)
let put_value t ~key v =
  let payload = Marshal.to_string v [] in
  put t ~key (header ^ Digest.string payload ^ payload)

let get_value t ~key =
  match get t ~key with
  | None -> None
  | Some s ->
    let hl = String.length header in
    let pl = hl + 16 in
    if String.length s < pl || String.sub s 0 hl <> header then None
    else if
      Digest.substring s pl (String.length s - pl) <> String.sub s hl 16
    then None
    else (try Some (Marshal.from_string s pl) with _ -> None)

let remove t ~key =
  let p = path t key in
  adjust t p (fun () -> try Sys.remove p with Sys_error _ -> ())
