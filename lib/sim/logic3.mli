(** Three-valued logic over the lanes of a native int — {!Packed.width}
    ([Sys.int_size], 63 on 64-bit platforms) lanes per word, dual-rail
    encoded: [hi] has a bit set where the value is known 1, [lo] where it
    is known 0, neither where it is X.  The rails never overlap.  Native
    ints never allocate, so a whole word of lanes settles in a handful
    of unboxed machine ops.

    The one word of every simulator in the repo: a lane carries a test
    pattern (packed fault simulation), a faulty machine (parallel-fault
    simulation) or a random stimulus (equivalence checking).  Truth
    tables, lane for lane:

    {v
       AND: hi = a.hi & b.hi        lo = a.lo | b.lo
       OR : hi = a.hi | b.hi        lo = a.lo & b.lo
       NOT: hi = a.lo               lo = a.hi
       XOR: hi = a.hi&b.lo | a.lo&b.hi
            lo = a.hi&b.hi | a.lo&b.lo
       MUX: hi = s.hi&b.hi | s.lo&a.hi | a.hi&b.hi   (s=1 picks b)
            lo = s.hi&b.lo | s.lo&a.lo | a.lo&b.lo
    v} *)

type t = { hi : int; lo : int }

(** Every lane unknown. *)
val x : t

(** 0 (resp. 1) in every lane. *)
val zero : t
val one : t

val v_and : t -> t -> t
val v_or : t -> t -> t
val v_not : t -> t
val v_xor : t -> t -> t

(** [v_mux s a b]: select 1 chooses [b], 0 chooses [a]; an X select
    yields a known value only where both branches agree. *)
val v_mux : t -> t -> t -> t

(** Mask of lanes where the value is binary. *)
val known : t -> int

(** Mask of lanes where both values are binary and differ — the
    detection test. *)
val diff : t -> t -> int

(** [of_bits ~value ~known] builds per-lane values: bit [i] of [value]
    where bit [i] of [known] is set, X elsewhere. *)
val of_bits : value:int -> known:int -> t

val equal : t -> t -> bool

(** Lane [i]'s value; [None] is X. *)
val get : t -> int -> bool option

val set : t -> int -> bool option -> t

(** [to_string ?n a] renders the low [n] lanes, most significant
    first, as ['0'], ['1'] and ['x']. *)
val to_string : ?n:int -> t -> string
