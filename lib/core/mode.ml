(** Allocator variants compared in the paper's evaluation.

    - [No_remat]: Chaitin-Briggs allocator with rematerialization disabled
      entirely; every spill is a store/reload.  Not in the paper's tables,
      but a useful lower bound for the benchmarks.
    - [Chaitin_remat]: the "Optimistic" column of Table 1 — Chaitin's
      limited scheme, where a live range is rematerialized only when every
      definition contributing to it is the same never-killed instruction;
      live ranges are never split.
    - [Briggs_remat]: the "Rematerialization" column — the paper's full
      method with tag propagation, minimal splits, conservative coalescing
      and biased coloring.
    - [Briggs_remat_phi_splits]: the §6 extension that splits at {e all}
      φ-nodes (the "Splits" column of Figure 3), used by the ablation
      bench.
    - [Briggs_split_all_loops] / [Briggs_split_outer_loops] /
      [Briggs_split_unreferenced]: the §6 loop-boundary splitting schemes
      1-3, layered on top of [Briggs_remat] (see {!Splitting}). *)

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

let to_string = function
  | No_remat -> "no-remat"
  | Chaitin_remat -> "chaitin"
  | Briggs_remat -> "briggs"
  | Briggs_remat_phi_splits -> "briggs-phi-splits"
  | Briggs_split_all_loops -> "briggs-split-loops"
  | Briggs_split_outer_loops -> "briggs-split-outer"
  | Briggs_split_unreferenced -> "briggs-split-unref"
  | Ssa_remat -> "ssa"
  | Ssa_no_remat -> "ssa-no-remat"

let of_string = function
  | "no-remat" -> Some No_remat
  | "chaitin" -> Some Chaitin_remat
  | "briggs" -> Some Briggs_remat
  | "briggs-phi-splits" -> Some Briggs_remat_phi_splits
  | "briggs-split-loops" -> Some Briggs_split_all_loops
  | "briggs-split-outer" -> Some Briggs_split_outer_loops
  | "briggs-split-unref" -> Some Briggs_split_unreferenced
  | "ssa" -> Some Ssa_remat
  | "ssa-no-remat" -> Some Ssa_no_remat
  | _ -> None

let all =
  [
    No_remat;
    Chaitin_remat;
    Briggs_remat;
    Briggs_remat_phi_splits;
    Briggs_split_all_loops;
    Briggs_split_outer_loops;
    Briggs_split_unreferenced;
    Ssa_remat;
    Ssa_no_remat;
  ]

(* The four variants compared in the paper's evaluation proper; the loop
   schemes are the further experiments reported via Briggs' thesis. *)
let core = [ No_remat; Chaitin_remat; Briggs_remat; Briggs_remat_phi_splits ]

let splits = function
  | No_remat | Chaitin_remat | Ssa_remat | Ssa_no_remat -> false
  | Briggs_remat | Briggs_remat_phi_splits | Briggs_split_all_loops
  | Briggs_split_outer_loops | Briggs_split_unreferenced ->
      true

let loop_scheme = function
  | Briggs_split_all_loops -> Some `All_loops
  | Briggs_split_outer_loops -> Some `Outer_loops
  | Briggs_split_unreferenced -> Some `Unreferenced
  | No_remat | Chaitin_remat | Briggs_remat | Briggs_remat_phi_splits
  | Ssa_remat | Ssa_no_remat ->
      None

let is_ssa = function
  | Ssa_remat | Ssa_no_remat -> true
  | No_remat | Chaitin_remat | Briggs_remat | Briggs_remat_phi_splits
  | Briggs_split_all_loops | Briggs_split_outer_loops
  | Briggs_split_unreferenced ->
      false

