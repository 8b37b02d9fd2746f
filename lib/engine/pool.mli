(** A fixed-size work-stealing domain pool with futures.

    [create n] builds a pool of [n] execution slots backed by [n - 1]
    worker domains (OCaml 5 [Domain]s): the caller's own domain is the
    remaining slot, because {!await} executes queued tasks while the
    awaited future is unresolved.  That "helping" discipline is what
    makes nested submission safe — a task running on a worker may submit
    sub-tasks to the same pool and await them without deadlocking the
    pool, even when every worker is busy.

    Each slot owns a deque: a task submitted from a worker is pushed on
    the front of that worker's own deque (depth-first, cache-warm), a
    task submitted from outside the pool goes to slot 0, and an idle
    worker that finds its own deque empty steals from the {i back} of
    another slot's deque (breadth-first, oldest first).

    Exceptions raised by a task are captured together with their
    backtrace and re-raised by {!await} in the awaiting domain; the
    worker that ran the task survives.  {!shutdown} is graceful: queued
    tasks are drained before the workers exit. *)

type t

type 'a future

(** [create n] builds a pool of [n >= 1] slots ([n - 1] worker domains).
    [create 1] spawns no domains: every task runs in the caller when it
    awaits — the serial semantics, useful as the [-j 1] baseline. *)
val create : int -> t

(** Number of slots (the [n] given to {!create}). *)
val size : t -> int

(** [submit pool f] queues [f] and returns its future.
    @raise Invalid_argument if the pool has been shut down. *)
val submit : t -> (unit -> 'a) -> 'a future

(** Raised by {!await} on a future that was {!cancel}led. *)
exception Cancelled

(** [await fut] returns the task's result, executing other queued tasks
    while waiting; re-raises (with backtrace) if the task raised.
    @raise Cancelled if the future was cancelled before it ran. *)
val await : 'a future -> 'a

(** [cancel fut] withdraws a future whose task has not started: the
    future moves to the cancelled state ({!await} raises {!Cancelled})
    and whichever slot later pops the task drains it without running —
    workers survive and keep serving other tasks.  Returns [false] if
    the task already started (or finished, or was already cancelled):
    cancellation is cooperative past that point — hand the running task
    a {!Budget} token instead. *)
val cancel : 'a future -> bool

(** Drain queued tasks, stop the workers and join their domains.  The
    pool cannot be used afterwards.  Idempotent. *)
val shutdown : t -> unit

(** {1 Telemetry} *)

type stats = {
  ps_jobs : int;         (** slots in the pool *)
  ps_tasks : int;        (** tasks completed since creation *)
  ps_steals : int;       (** tasks taken from another slot's deque *)
  ps_cancelled : int;    (** futures cancelled before their task ran *)
  ps_queue_wait : float; (** total seconds tasks spent queued *)
  ps_run_time : float;   (** total seconds spent running tasks *)
  ps_busy : float array; (** per-slot busy seconds (slot 0 = external
                             helpers, 1.. = worker domains) *)
  ps_wall : float;       (** wall seconds since the pool was created *)
}

val stats : t -> stats

(** Human-readable rendering of a stats snapshot: one summary line plus
    one busy line per slot.  Used by [--profile]. *)
val stats_to_string : stats -> string

(** Push a stats snapshot into {!Obs.Metrics} under [factor.pool.*]
    ([jobs], [tasks], [steals], [queue_wait_s], [run_time_s], [wall_s],
    [utilization]) so a metrics dump includes pool telemetry. *)
val publish_metrics : t -> unit

(** {1 The process-wide pool}

    Engines at several layers (fault simulation, ATPG, MUT-parallel
    flows) share one pool so that nesting never oversubscribes the
    machine. *)

(** [FACTOR_JOBS] if set and positive, else
    [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** The shared pool, created on first use with {!default_jobs} slots. *)
val global : unit -> t

(** Stats of the shared pool if one was ever created — unlike
    [stats (global ())] this never spawns a pool, so exit-time profile
    hooks can call it unconditionally. *)
val global_stats : unit -> stats option

(** Resize the shared pool (shutting down the previous one); the [-j N]
    entry point of the CLI and bench runner.  No-op if already [n]. *)
val set_jobs : int -> unit
