(** Request/response payloads of the serving protocol.

    Payloads (the contents of one {!Frame}) are plain text: a header —
    [ralloc/1 <op>] followed by [key value] lines — then a blank line
    and an optional routine body.  Routines travel in the repo's ILOC
    concrete syntax ({!Iloc.Printer} / {!Iloc.Parser}).

    Decoding is total: malformed payloads come back as [Error msg] and
    the server answers them with a structured {!Err} response. *)

type config = { mode : Remat.Mode.t; k_int : int; k_float : int }
(** The allocation-relevant request axes — part of the cache key. *)

val standard_config : config
(** {!Remat.Mode.Briggs_remat} on {!Remat.Machine.standard}'s counts. *)

val machine_of_config : config -> Remat.Machine.t

type request =
  | Alloc of { config : config; text : string }
      (** allocate a routine, cold or from cache *)
  | Probe of { config : config; hash : string }
      (** query by content hash only: a hit returns the allocation, a
          miss returns {!Absent} (never allocates) *)
  | Edit of { config : config; base : string; text : string }
      (** allocate an edited variant of the cached routine whose content
          hash is [base], reusing its snapshot incrementally when the
          edit permits *)
  | Stats  (** report cache counters *)
  | Shutdown  (** answer {!Bye} and stop the server loop *)

type source = Cold | Hit | Incremental

type alloc_stats = {
  rounds : int;
  full_builds : int;  (** from-scratch interference builds *)
  liveness_runs : int;
  spilled : int;  (** memory + remat spills, total *)
}

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  entries : int;
  capacity : int;
}

type err_kind = Parse_error | Protocol_error | Alloc_error | Server_error

type response =
  | Allocated of {
      hash : string;  (** content hash of the {e input} routine *)
      source : source;
      stats : alloc_stats;
      text : string;  (** allocated routine text *)
    }
  | Absent of { hash : string }
  | Cache_stats of cache_stats
  | Err of { kind : err_kind; msg : string }
  | Bye

val encode_request : request -> string
val encode_response : response -> string
val parse_request : string -> (request, string) result
val parse_response : string -> (response, string) result

val cache_key : hash:string -> config -> string
(** Memo-table key: content hash ⊕ mode ⊕ register counts. *)
