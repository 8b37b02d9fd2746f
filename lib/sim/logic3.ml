(** Three-valued logic over the lanes of a native int ([Sys.int_size]
    lanes), dual-rail encoded: [hi] has a bit set where the value is
    known 1, [lo] where it is known 0, neither where it is X.  A bit must
    never be set in both rails. *)

type t = { hi : int; lo : int }

let x = { hi = 0; lo = 0 }
let zero = { hi = 0; lo = -1 }
let one = { hi = -1; lo = 0 }

let v_and a b = { hi = a.hi land b.hi; lo = a.lo lor b.lo }
let v_or a b = { hi = a.hi lor b.hi; lo = a.lo land b.lo }
let v_not a = { hi = a.lo; lo = a.hi }

let v_xor a b =
  { hi = (a.hi land b.lo) lor (a.lo land b.hi);
    lo = (a.hi land b.hi) lor (a.lo land b.lo) }

(* mux: select 1 chooses [b], select 0 chooses [a]; when the select is X
   the output is known only where both branches agree. *)
let v_mux s a b =
  { hi = (s.hi land b.hi) lor (s.lo land a.hi) lor (a.hi land b.hi);
    lo = (s.hi land b.lo) lor (s.lo land a.lo) lor (a.lo land b.lo) }

(** Mask of lanes where the value is binary (not X). *)
let known a = a.hi lor a.lo

(** Mask of lanes where [a] and [b] are binary and differ. *)
let diff a b = (a.hi land b.lo) lor (a.lo land b.hi)

(** Pack lane [i]: value from [value], X where [known] is clear. *)
let of_bits ~value ~known = { hi = value land known; lo = lnot value land known }

let equal a b = a.hi = b.hi && a.lo = b.lo

(** Lane [i]'s value: [Some true], [Some false], or [None] for X. *)
let get a i =
  let bit m = (m lsr i) land 1 = 1 in
  if bit a.hi then Some true else if bit a.lo then Some false else None

let set a i value =
  let m = 1 lsl i in
  let clear v = v land lnot m in
  match value with
  | Some true -> { hi = a.hi lor m; lo = clear a.lo }
  | Some false -> { hi = clear a.hi; lo = a.lo lor m }
  | None -> { hi = clear a.hi; lo = clear a.lo }

let to_string ?(n = 8) a =
  String.init n (fun i ->
      match get a (n - 1 - i) with
      | Some true -> '1'
      | Some false -> '0'
      | None -> 'x')
