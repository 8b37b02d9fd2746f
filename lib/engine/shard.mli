(** Deterministic sharding: the one place that decides how work fans out
    over the domain pool and in which order results merge.  Results
    always come back in input order, so a parallel run is bit-identical
    to the serial one whenever the per-item work is independent — the
    contract the fault-sharded simulator, the fault-parallel generator
    and the MUT-parallel flows rely on.  Serial is simply the one-job
    case of the same map.

    Sharding never depends on timing, pool size or scheduling: the same
    [shards] and item count always produce the same partition. *)

(** [ranges ~shards n] splits [0..n-1] into at most [shards] contiguous
    [(start, length)] chunks in ascending order; chunk sizes differ by
    at most one and the partition is a pure function of [(shards, n)].
    Empty when [n = 0]. *)
val ranges : shards:int -> int -> (int * int) array

(** [map ?stop ~jobs f xs] applies [f] to every item and returns the
    results in input order.

    With [jobs <= 1] or at most one item it runs inline in the caller,
    item by item, without touching the pool.  Otherwise every item is
    its own task on {!Pool.global}.

    [stop] (default: never) is asked before anything runs, then before
    each item in order.  Once it holds, the items not yet started are
    withdrawn and read [None]; [None] means withdrawn and nothing else,
    so without [stop] every slot is [Some].  [stop] should stay true
    once it holds, like a dead {!Budget}.  An item already running when
    [stop] first holds finishes normally. *)
val map :
  ?stop:(unit -> bool) -> jobs:int -> ('a -> 'b) -> 'a array ->
  'b option array

(** [map_chunks ~jobs f arr] applies [f] to each of the contiguous
    sub-arrays [ranges ~shards:jobs] cuts [arr] into, through {!map},
    and returns the per-chunk results in chunk order.  A single chunk is
    [arr] itself, not a copy. *)
val map_chunks : jobs:int -> ('a array -> 'b) -> 'a array -> 'b array
