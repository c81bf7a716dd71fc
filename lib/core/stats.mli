(** Per-phase wall-clock and event accounting, the instrument behind
    Table 2.

    The allocator records one timing row per (round, phase) execution;
    [rows] returns them in execution order.  Phase names match the
    allocator pipeline: [validate] (the input's validation and source
    gate, in round 0), [cfa] (the front half's one control-flow
    analysis, in round 0: splitting critical edges, encoding the
    routine onto the arena, its dominator tree and its loop nest —
    dominance frontiers belong to [renum], which places φs with them),
    [renum], [split] (the §6 loop-splitting schemes),
    [live] (liveness), [build] (the live-range numbering and one
    from-scratch interference-graph construction), [coalesce] (the copy
    worklist and the in-place coalescing sweeps), [costs], [simplify],
    [select], [spill] (choosing the ranges to spill and inserting spill
    code), [rewrite] (the last round's rewrite to physical registers
    and its bridge to the structured routine).

    Orthogonal to the timers, integer {e event counters} record how often
    structural events happened per round — most importantly
    [Full_builds], which the incremental build–coalesce loop must keep at
    ≤ 1 per spill round. *)

type phase =
  | Validate
  | Cfa
  | Renum
  | Splitting
  | Liveness
  | Build
  | Coalesce
  | Costs
  | Simplify
  | Select
  | Spill
  | Rewrite

type counter =
  | Full_builds  (** from-scratch {!Interference.build_flat_boundary} runs *)
  | Liveness_runs  (** global liveness recomputations *)
  | Coalesce_sweeps  (** coalescing sweeps over the routine's copies *)
  | Coalesced_copies  (** copy instructions removed by coalescing *)
  | Node_merges  (** in-place {!Interference.merge} operations *)
  | Spilled_ranges  (** live ranges handed to spill-code insertion *)
  | Briggs_tests  (** conservative-coalescing criterion evaluations *)
  | Briggs_denied  (** Briggs tests that rejected the merge *)
  | Interfering_copies
      (** copies retired from the coalescing worklist because their live
          ranges interfere (interference only grows under merging) *)
  | Select_partner_hits  (** nodes colored with a colored partner's color *)
  | Select_lookahead_hits
      (** nodes colored via the uncolored-partner lookahead *)
  | Select_fallbacks  (** nodes colored with the plain lowest color *)
  | Build_pairs
      (** candidate interference pairs emitted by the graph build's
          sweep (before deduplication) *)
  | Build_dupes
      (** emitted pairs dropped as duplicates of an earlier emission *)
  | Build_overlay
      (** edges coalescing's merges added after the round's build: the
          dropped node's neighbors the kept node did not already have
          ({!Interference.union_edges}) *)

type row = {
  round : int;
  phase : phase;
  seconds : float;
  minor_words : float;
      (** minor-heap words allocated during the phase.  Both word counts
          are the calling domain's own ([Gc.minor_words], [Gc.counters]):
          under [-j N] a row is never charged words another domain
          allocated, and the probes' own allocation is not counted. *)
  major_words : float;
      (** words allocated directly on or promoted to the major heap —
          the flat phases trade minor churn for a few large long-lived
          buffers, and this column is what shows it *)
}
type t

val create : unit -> t
val time : t -> round:int -> phase -> (unit -> 'a) -> 'a
val count : t -> round:int -> counter -> int -> unit
val rows : t -> row list
val counters : t -> (int * counter * int) list
(** Per-(round, counter) sums, in first-occurrence order. *)

val counter_total : t -> counter -> int

val total : t -> float
val phase_to_string : phase -> string
val counter_to_string : counter -> string

val by_phase : t -> (int * phase * float * float * float) list
(** Same as {!rows} but summed per (round, phase) pair, ordered:
    [(round, phase, seconds, minor_words, major_words)]. *)

val pp : Format.formatter -> t -> unit
