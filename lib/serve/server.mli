(** The allocation daemon: waves of framed requests, fanned out across a
    persistent {!Suite.Pool}, memoized in an LRU {!Cache} keyed by
    routine content hash ⊕ config, with incremental re-allocation for
    edited routines.

    Every wave runs plan (sequential) → allocate (parallel) →
    replay (sequential, request order), so the full response byte
    stream — hit/miss labels and cache counters included — is a pure
    function of the request stream and wave boundaries, independent of
    the job count.  See DESIGN.md §15 for the argument. *)

(** Every cold allocation keeps its first round's
    {!Remat.Allocator.snapshot} in its cache entry, so [Edit] requests
    against a cached base take the incremental path; no setting turns
    this off. *)
type config = {
  jobs : int;  (** pool width; 1 = everything in the serving domain *)
  cache_capacity : int;  (** LRU bound (entries) *)
  max_frame : int;  (** reject larger frames as corrupt *)
  batch_limit : int;  (** max requests drained into one wave *)
}

val default_config : config
(** jobs 1, capacity 512, 16 MiB frames, waves ≤ 64. *)

type t

val create : ?config:config -> unit -> t

val shutdown : t -> unit
(** Stop accepting (idempotent) and shut the pool down gracefully. *)

val cache_counters : t -> Protocol.cache_stats
(** Live cache counters, for the load generator and tests. *)

val handle_batch :
  t -> (Protocol.request, string) result list -> Protocol.response list
(** Process one wave (parse failures are passed as [Error] and answered
    with [Err Parse_error]); responses come back in request order.  The
    load generator drives this directly; the wire loop drains frames
    into it.  A [Shutdown] request marks the server stopping. *)

val serve_fds : t -> in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> unit
(** Serve one framed connection until EOF, a framing violation (answered
    with a structured error first), or [Shutdown].  Nothing a client
    sends makes this raise. *)

val serve_socket : t -> string -> unit
(** Bind a Unix-domain socket at the path (unlinking any stale one),
    then accept and serve one connection at a time until a [Shutdown]
    request arrives.  The socket is closed and unlinked on exit. *)
