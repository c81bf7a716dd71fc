(** Measurement harness behind the paper's tables and figures.

    Spill cost follows §5.2: a routine is allocated for the target machine
    and for the "huge" (128+128) machine, both allocations are executed by
    the interpreter, and the difference in weighted dynamic cycles is the
    cost the allocator paid for the target's limited register set. *)

type measurement = {
  kernel : Kernels.kernel;
  mode : Remat.Mode.t;
  counts : Sim.Counts.t;  (** dynamic counts on the target machine *)
  baseline : Sim.Counts.t;  (** dynamic counts on the huge machine *)
  spill_cycles : int;  (** weighted cycle difference *)
  result : Remat.Allocator.result;
}

val measure : Remat.Mode.t -> Kernels.kernel -> measurement
(** On {!Remat.Machine.standard}.  Kernels are optimized
    ({!Opt.Pipeline}) before allocation, as in the paper's compiler. *)

(** One Table 1 row: the Optimistic (Chaitin) and Rematerialization
    (Briggs) allocators compared on one routine, with the percentage
    contribution of each instruction category to the improvement. *)
type table1_row = {
  t1_kernel : Kernels.kernel;
  optimistic : int;  (** cycles of spill code, Chaitin's scheme *)
  remat : int;  (** cycles of spill code, the paper's scheme *)
  contributions : (Iloc.Instr.category * float) list;
      (** percent of [optimistic] saved per category; negative = loss *)
  total_pct : float;
}

val table1_row : Kernels.kernel -> table1_row
(** One kernel's row, whether or not {!table1} keeps it. *)

val table1 : unit -> table1_row list
(** The kernels where the two allocators differ, as in the paper's
    Table 1, less the noise rows whose spill cost is below 8 cycles under
    both allocators (the huge-machine baseline is "nearly perfect", §5.2,
    so tiny differences are measurement noise). *)

val pp_table1 : Format.formatter -> table1_row list -> unit

(** Table 2: per-phase allocation times and minor-heap allocation, Old
    (Chaitin) vs New (Briggs), plus the allocator's event counters (full
    graph builds, liveness runs, coalesce sweeps, node merges, spilled
    ranges, Briggs tests, biased-coloring hits). *)
type table2_column = {
  t2_kernel : Kernels.kernel;
  old_rows : (int * Remat.Stats.phase * float * float * float) list;
      (** (round, phase, seconds, minor words, major words), averaged
          over repeats *)
  new_rows : (int * Remat.Stats.phase * float * float * float) list;
  old_counters : (int * Remat.Stats.counter * int) list;
  new_counters : (int * Remat.Stats.counter * int) list;
  old_total : float;
  new_total : float;
}

val table2 : ?repeats:int -> ?jobs:int -> string list -> table2_column list
(** Kernels by name; each allocation is repeated [repeats] (default 10)
    times and per-phase times are averaged, as in §5.4.  Counters are
    deterministic and reported from a single run.  [jobs] (default 1)
    measures kernels on a {!Pool} of that many domains — parallel
    columns contend for cores, so use it for counter regeneration and CI
    smoke runs, not for comparable wall-clock numbers. *)

val pp_table2 : Format.formatter -> table2_column list -> unit

val json_string : string -> string
(** A JSON string literal, surrounding quotes included.  The double
    quote and the backslash are backslash-escaped; newline, tab and
    carriage return take their short escapes; other control bytes become
    [\u00XX]; every other byte, UTF-8 sequences included, passes through
    unchanged.  The BENCH_alloc and BENCH_race writers, the serve load
    generator's summary and the fuzz campaign's summary escape their
    strings here. *)

val table2_json : table2_column list -> string
(** Machine-readable form of {!table2} output — one object per kernel
    with per-phase seconds and per-round counters for both allocators.
    [bench/main.exe table2] writes this to [BENCH_alloc.json] for
    cross-revision trajectory tracking. *)

(** §6 ablation: spill cycles and splits per mode per kernel. *)
type ablation_cell = {
  ab_mode : Remat.Mode.t;
  ab_cycles : int;  (** spill cycles, as {!measurement.spill_cycles} *)
  ab_splits : int;  (** {!Remat.Allocator.result.n_splits} *)
}

type ablation_row = { ab_kernel : Kernels.kernel; per_mode : ablation_cell list }

val ablation : unit -> ablation_row list
(** Every kernel under every mode of {!Remat.Mode.all}, measured as
    {!measure} does. *)

val pp_ablation : Format.formatter -> ablation_row list -> unit

(** The race: both full pipelines — Chaitin–Briggs ([Briggs_remat]) and
    the decoupled SSA spill/chordal-color pipeline ([Ssa_remat]) — on
    every workload kernel, comparing the {e quality} of the allocation
    (dynamic weighted cycles of the allocated code under {!Sim.Interp})
    and its {e price} (allocation wall time, best of [repeats]). *)
type race_row = {
  race_kernel : Kernels.kernel;
  briggs_cycles : int;
  ssa_cycles : int;
  briggs_alloc_s : float;
  ssa_alloc_s : float;
  briggs_spilled : int;  (** memory + remat live ranges/values spilled *)
  ssa_spilled : int;
  briggs_coalesced : int;
  ssa_coalesced : int;
}

val race : ?repeats:int -> unit -> race_row list
(** [Briggs_remat] against [Ssa_remat] on {!Remat.Machine.standard};
    kernels are optimized before allocation, like {!measure}.  Each
    allocation's time is the best of [repeats] (default 5). *)

val pp_race : Format.formatter -> race_row list -> unit

val race_json : race_row list -> string
(** Machine-readable form; [ralloc bench race] writes it to
    [BENCH_race.json]. *)
