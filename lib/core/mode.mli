(** Allocator variants compared in the evaluation.

    - [No_remat]: Chaitin-Briggs allocator with rematerialization
      disabled entirely; every spill is a store/reload.  Not in the
      paper's tables, but a useful lower bound for the benchmarks.
    - [Chaitin_remat]: the "Optimistic" column of Table 1 — Chaitin's
      limited scheme, where a live range is rematerialized only when
      every definition contributing to it is the same never-killed
      instruction; live ranges are never split.
    - [Briggs_remat]: the "Rematerialization" column — the paper's full
      method with tag propagation, minimal splits, conservative
      coalescing and biased coloring.
    - [Briggs_remat_phi_splits]: the §6 extension that splits at {e all}
      φ-nodes (the "Splits" column of Figure 3).
    - [Briggs_split_all_loops] / [Briggs_split_outer_loops] /
      [Briggs_split_unreferenced]: the §6 loop-boundary splitting schemes
      1–3, layered on top of [Briggs_remat] (see {!Splitting}).
    - [Ssa_remat] / [Ssa_no_remat]: the decoupled pipeline (Bouchez–
      Darte–Rastello): spill on SSA form until MaxLive ≤ k per class
      (remat-aware resp. store/reload-only), color the chordal
      interference graph greedily on dominator preorder, then destruct
      SSA with parallel-copy sequentialization (see {!Ssa_alloc}). *)

type t =
  | No_remat
  | Chaitin_remat
  | Briggs_remat
  | Briggs_remat_phi_splits
  | Briggs_split_all_loops
  | Briggs_split_outer_loops
  | Briggs_split_unreferenced
  | Ssa_remat
  | Ssa_no_remat

val to_string : t -> string
val of_string : string -> t option

val all : t list
(** Every variant, in presentation order. *)

val core : t list
(** The four variants of the paper's evaluation proper; the loop schemes
    are the further experiments reported in Briggs' thesis. *)

val splits : t -> bool
(** Does renumber (or a later pass) introduce split copies? *)

val loop_scheme : t -> [ `All_loops | `Outer_loops | `Unreferenced ] option
(** The {!Splitting} scheme to run after renumber, if any. *)

val is_ssa : t -> bool
(** Does this mode select the decoupled SSA pipeline (spill-everywhere
    to MaxLive ≤ k, chordal coloring, SSA destruction) instead of the
    Chaitin–Briggs build–coalesce–simplify–select loop? *)

