(** The serving load generator behind [ralloc bench serve].

    Replays a deterministic stream of fuzz-generated routines — a
    configurable mix of repeats and seeded edits ({!Fuzz.Gen.mutate}) —
    through {!Server.handle_batch} in fixed-size waves, and reports
    latency percentiles, throughput, cache counters and the MD5 digest
    of the concatenated response bytes.  The stream and the wave size
    are independent of the job count, so [s_output_digest] must be
    identical for every [-j] — the determinism gate CI checks. *)

type config = {
  requests : int;
  distinct : int;  (** distinct base routines *)
  edit_rate : float;  (** fraction of requests that are seeded edits *)
  seed : int;
  jobs : int;
  wave : int;  (** requests per wave *)
  cache_capacity : int;  (** the server's LRU bound (entries) *)
  alloc : Protocol.config;  (** mode and machine of every request *)
  gen : Fuzz.Gen.config;  (** shape of the generated base routines *)
}
(** The server it drives keeps snapshots, as [ralloc serve] does, so the
    stream's edits of cached bases take the incremental path. *)

val default : config
(** 1000 requests over 32 bases, 30% edits, one job, waves of 32, a
    512-entry cache, {!Protocol.standard_config}, {!Fuzz.Gen.default}. *)

type summary = {
  s_requests : int;
  s_distinct : int;
  s_edit_rate : float;
  s_jobs : int;
  s_wave : int;
  s_seed : int;
  s_duration : float;  (** seconds *)
  s_throughput : float;  (** requests per second *)
  s_p50_ms : float;
  s_p99_ms : float;
  s_mean_ms : float;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_insertions : int;
  s_hit_rate : float;
  s_cold : int;
  s_hit_responses : int;
  s_incremental : int;
  s_edits : int;  (** edit requests issued *)
  s_edit_fallbacks : int;  (** edit requests answered cold *)
  s_errors : int;
  s_incremental_rebuilds : int;
      (** incremental responses whose phase stats betray a first-round
          full interference build — must be 0 *)
  s_output_digest : string;  (** MD5 over the concatenated responses *)
}

val run : config -> summary

val summary_to_json : summary -> string
val save : string -> summary -> unit
