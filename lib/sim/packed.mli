(** Pattern-parallel batches (PPSFP): one {!Logic3} word carries the same
    signal across up to {!width} {e test patterns}, lane [j] belonging to
    test [j]. *)

(** Lanes per word: [Sys.int_size], i.e. 63 on 64-bit platforms. *)
val width : int

(** [mask n] has the low [n] lane bits set ([n = width] sets them all). *)
val mask : int -> int

(** {1 Pattern-to-lane transpose}

    A {!batch} is the transpose of up to {!width} test-pattern rows into
    per-frame words: lane [j] of every word belongs to test [j].  Tests
    may have different frame counts; beyond a test's last frame its lane
    applies X inputs and must not be observed — [b_active] masks the
    lanes still inside their own sequence, [b_last] the lanes for which a
    frame is the final one (where end-of-test state observation
    happens). *)

type batch = {
  b_lanes : int;               (** number of tests packed, <= {!width} *)
  b_mask : int;                (** [mask b_lanes] *)
  b_frames : int;              (** max frame count across the lanes *)
  b_active : int array;        (** per frame: lanes with [frame < frames_j] *)
  b_last : int array;          (** per frame: lanes whose last frame it is *)
  b_pis : Logic3.t array array;  (** per frame, per PI: the applied values *)
  b_loads : Logic3.t array;    (** per FF: the initial state (X unloaded) *)
}

(** [make_batch ~num_pis ~num_ffs ~vectors ~loads] transposes test rows
    into lanes; [vectors.(j)] are test [j]'s per-frame primary-input
    vectors and [loads.(j)] its initial register loads (FFs not loaded
    start at X in that lane).
    @raise Invalid_argument if more than {!width} tests are given. *)
val make_batch :
  num_pis:int -> num_ffs:int ->
  vectors:bool array array array ->
  loads:(int * bool) list array ->
  batch
