(** Content-addressed on-disk store for the serve daemon.

    One flat directory of files, one entry per key.  Writes go to a
    temporary file in the same directory and [rename] into place, so a
    reader never observes a torn entry and a crashed writer leaves at
    worst an orphan temp file.  Marshalled values carry a magic string,
    the compiler version and a digest of the payload; {!get_value}
    treats any mismatch — or any read/unmarshal failure at all — as a
    cache miss, never an error, so a store written by an older build, or
    corrupted on disk, degrades to cold starts instead of poisoning the
    daemon. *)

type t

(** [open_ dir] creates [dir] (and parents) if needed.
    @raise Sys_error when the path exists but is not a directory, or
    cannot be created. *)
val open_ : string -> t

val dir : t -> string

(** [put t ~key s] atomically stores raw bytes.  [key] must be made of
    [A-Za-z0-9._-] only.
    @raise Invalid_argument on an unsafe key. *)
val put : t -> key:string -> string -> unit

(** Raw bytes for [key]; [None] when absent or unreadable. *)
val get : t -> key:string -> string option

(** [put_value t ~key v] stores [Marshal.to_string v] under a versioned
    header and its {!Digest}.  [v] must be pure data (no closures, no
    custom blocks). *)
val put_value : t -> key:string -> 'a -> unit

(** [get_value t ~key] returns the stored value, or [None] when the key
    is absent, the header does not match this build, the payload does
    not match its digest, or unmarshalling fails.  The caller must request the same type that was stored —
    the store cannot check it (standard [Marshal] caveat); confine each
    key namespace to a single type. *)
val get_value : t -> key:string -> 'a option

(** Remove an entry if present. *)
val remove : t -> key:string -> unit

(** [(entries, bytes)] currently on disk — regular files only,
    in-flight temp files excluded — by a full directory scan.  The
    [factor.serve.store_entries] / [factor.serve.store_bytes] gauges
    carry the same figures on the [metrics] op: {!open_} scans once,
    then every write or removal adjusts them by the one entry it
    touched. *)
val stats : t -> int * int
