(** Deterministic sharding and the one ordered fan-out over {!Pool}. *)

let ranges ~shards n =
  if n <= 0 then [||]
  else begin
    let s = max 1 (min shards n) in
    let base = n / s and rem = n mod s in
    Array.init s (fun i ->
        let start = (i * base) + min i rem in
        let len = base + (if i < rem then 1 else 0) in
        (start, len))
  end

let never () = false

let map ?(stop = never) ~jobs f xs =
  let n = Array.length xs in
  if jobs <= 1 || n <= 1 then
    Array.map (fun x -> if stop () then None else Some (f x)) xs
  else if stop () then Array.make n None
  else begin
    let pool = Pool.global () in
    let futs = Array.map (fun x -> Pool.submit pool (fun () -> f x)) xs in
    (* once [stop] holds, every task still queued is withdrawn in one
       pass, before awaiting helps run any of them *)
    let stopped = ref false in
    Array.mapi
      (fun k fut ->
        if (not !stopped) && stop () then begin
          stopped := true;
          for j = k to n - 1 do
            ignore (Pool.cancel futs.(j) : bool)
          done
        end;
        match Pool.await fut with
        | v -> Some v
        | exception Pool.Cancelled -> None)
      futs
  end

let map_chunks ~jobs f arr =
  let n = Array.length arr in
  let chunk (start, len) = if len = n then arr else Array.sub arr start len in
  (* nothing is withdrawn without [~stop] *)
  map ~jobs (fun r -> f (chunk r)) (ranges ~shards:jobs n)
  |> Array.map Option.get
