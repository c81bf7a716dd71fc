(** Fuzzing campaign driver.

    Fans [runs] seeds out over {!Suite.Pool} workers; run [i] uses seed
    [seed + i], and every per-seed result (generation, oracle verdict,
    reduction) is a pure function of that seed, so the campaign summary is
    identical for every [-j] — scheduling only changes wall-clock time.

    Each divergence is delta-debugged down to a minimal reproducer while
    the same configuration still fails with the same divergence class,
    then bucketed by [fingerprint + configuration].  {!save} persists the
    corpus: one commented [.il] repro per failing seed plus a
    [summary.json]. *)

type report = {
  seed : int;
  config : string;  (** {!Oracle.config_name} of the failing config *)
  fingerprint : string;  (** {!Oracle.fingerprint} of the divergence *)
  detail : string;  (** {!Oracle.describe} of the divergence *)
  original_instrs : int;
  reduced_instrs : int;
  reduced : string;  (** minimal reproducer, textual ILOC *)
}

type summary = {
  runs : int;
  seed : int;  (** base seed; run [i] used [seed + i] *)
  failures : report list;  (** in seed order *)
  buckets : (string * int) list;
      (** ["fingerprint|config" -> count], sorted by key *)
}

val run :
  ?gen_config:Gen.config ->
  ?matrix:Oracle.config list ->
  ?reduce:bool ->
  runs:int ->
  seed:int ->
  jobs:int ->
  unit ->
  summary
(** [reduce] (default [true]) controls whether failing routines are
    minimized before reporting. *)

val summary_to_json : summary -> string
(** Deterministic JSON rendering (no timestamps, no job counts). *)

val save : dir:string -> summary -> unit
(** Create [dir] if needed and write [summary.json] plus
    [seed-<n>.il] reproducers (each with a [;]-comment header giving the
    failing configuration and divergence, so the file still parses). *)
