module Cfg = Iloc.Cfg
module Reg = Iloc.Reg
module Instr = Iloc.Instr

exception Allocation_error of string
exception Verification_error of string list

type result = {
  cfg : Iloc.Cfg.t;
  mode : Mode.t;
  machine : Machine.t;
  rounds : int;
  spilled_memory : int;
  spilled_remat : int;
  spill_slots : int;
  n_values : int;
  n_live_ranges : int;
  n_splits : int;
  coalesced_copies : int;
  stats : Stats.t;
}

(* The build–coalesce loop, incremental (§2, §4.2): one from-scratch
   graph build per spill round; every coalescing sweep after it updates
   the graph in place (Chaitin's neighbor-set union), so iterating to the
   coalescing fixpoint costs sweeps over the copies, not rebuilds.
   Unrestricted copies first, then conservative coalescing of splits;
   the arena is renamed once, after the last sweep. *)
let build_coalesce (ctx : Context.t) =
  ignore (Context.graph ctx);
  let before = ctx.Context.coalesced in
  let phase = ref Coalesce.Unrestricted in
  let rec loop () =
    let outcome = Coalesce.pass !phase ctx in
    if outcome.Coalesce.changed then loop ()
    else
      match !phase with
      | Coalesce.Unrestricted when Mode.splits ctx.Context.mode ->
          phase := Coalesce.Conservative;
          loop ()
      | Coalesce.Unrestricted | Coalesce.Conservative -> ()
  in
  loop ();
  if ctx.Context.coalesced > before then Coalesce.rewrite ctx;
  (* The graph object is this round's build, mutated in place by the
     sweeps above; the union edges their merges added are this round's
     growth beyond the build. *)
  Context.count ctx Stats.Build_overlay
    (Interference.union_edges (Context.graph ctx))

(* Identity copies — split or ordinary copies whose two live ranges
   received the same color, the situation biased coloring sets up — are
   deleted at rewrite time (§3.4), by the same pass that renames
   coalesced registers. *)
let rewrite_physical fl g (colors : int option array) =
  Coalesce.rename g
    (fun i -> match colors.(i) with Some c -> c | None -> assert false)
    fl

let validate_input input =
  match Iloc.Validate.routine input with
  | Ok () -> ()
  | Error es ->
      raise
        (Allocation_error
           (Printf.sprintf "invalid input routine: %s"
              (String.concat "; " (List.map Iloc.Validate.error_to_string es))))

let verify_output ~input ~output ~(machine : Machine.t) =
  match
    Verify.Check.routine ~input ~output ~k_int:machine.Machine.k_int
      ~k_float:machine.Machine.k_float
  with
  | Ok _ -> ()
  | Error errs when List.for_all Verify.Error.is_unsupported errs ->
      (* Outside the checker's domain (e.g. the input already carried
         spill code); nothing is proved, nothing is rejected. *)
      ()
  | Error errs ->
      raise (Verification_error (List.map Verify.Error.to_string errs))

(* Incremental re-allocation.

   A snapshot captures everything a {e small edit} of the routine leaves
   valid: the renumbered arena (pristine, before any coalescing),
   boundary liveness and the freshly built interference graph.  A cold
   allocation takes it from its own first round, after the build and
   before the first coalescing sweep, so the front half runs once per
   allocation.  Liveness and the graph depend only on which registers
   each instruction defines and uses, on which instructions are copies,
   and on terminator targets — never on immediate/offset payloads or
   source-operand order — so an edit that preserves that skeleton
   (after renumbering) can skip the from-scratch liveness + build and go
   straight to coalescing on a private copy of the cached graph.

   Renumbering itself is {e not} skipped: tag unioning can coincide
   differently under a payload change (two values whose remat tags were
   accidentally equal stop being unioned, or start), which changes the
   live-range skeleton.  The skeleton check below detects exactly that,
   and the edit then continues cold from the arena it has renumbered,
   so reuse is always sound: primed caches are used only when they
   provably describe the edited routine too. *)

type snapshot = {
  snap_mode : Mode.t;
  snap_machine : Machine.t;
  snap_loops : Dataflow.Loops.t;
  snap_flat : Iloc.Flat.t;
  snap_split_pairs : (Reg.t * Reg.t) list;
  snap_boundary : Dataflow.Liveness.Boundary.t;
  snap_graph : Interference.t;
}

(* Round 1's front half, before coalescing touches it.  Arenas are
   immutable (coalescing and spill code replace [ctx.flat]), so the
   arena is shared; the graph is copied, since coalescing merges in
   place.  The boundary rows are the context's own: dropping its
   liveness scratch detaches them, so a later recomputation (after
   coalescing, or in round 2) allocates fresh rows instead of recycling
   these. *)
let take_snapshot (ctx : Context.t) =
  let graph = Interference.copy (Context.graph ctx) in
  let boundary = Context.boundary ctx in
  ctx.Context.boundary_scratch <- None;
  {
    snap_mode = ctx.Context.mode;
    snap_machine = ctx.Context.machine;
    snap_loops = ctx.Context.loops;
    snap_flat = ctx.Context.flat;
    snap_split_pairs = ctx.Context.split_pairs;
    snap_boundary = boundary;
    snap_graph = graph;
  }

(* The spill-round loop, shared by the cold path (caches empty) and
   [allocate_incremental]'s reuse path (caches primed from a snapshot).
   Colors the context's arena and bridges the result to [Cfg.t], the
   loop's only bridge.  Of renumbering's result it takes only the two
   counts it reports, so the round-0 arena is not kept alive through the
   rounds.  With [~capture], round 1 also takes the snapshot. *)
let color_rounds ~capture ~verify ~max_rounds ~n_values ~n_live_ranges
    (input : Cfg.t) (ctx : Context.t) =
  let name = input.Cfg.name in
  let machine = ctx.Context.machine in
  let n_splits = List.length ctx.Context.split_pairs in
  let slot_counter = ref 0 in
  let spilled_memory = ref 0 and spilled_remat = ref 0 in
  let snap = ref None in
  let rec round r =
    if r > max_rounds then
      raise
        (Allocation_error
           (Printf.sprintf "%s: no coloring after %d rounds" name max_rounds));
    Context.set_round ctx r;
    if capture && r = 1 then snap := Some (take_snapshot ctx);
    build_coalesce ctx;
    let g = Context.graph ctx in
    let costs = Spill_cost.phase ctx in
    let order = Simplify.phase ctx ~costs in
    let partners = Array.make (Interference.n_nodes g) [] in
    List.iter
      (fun (a, b) ->
        match (Interference.index_opt g a, Interference.index_opt g b) with
        | Some ia, Some ib ->
            let ia = Interference.find g ia and ib = Interference.find g ib in
            partners.(ia) <- ib :: partners.(ia);
            partners.(ib) <- ia :: partners.(ib)
        | _ -> ())
      ctx.Context.split_pairs;
    let selection = Select.phase ctx ~order ~partners in
    match selection.Select.spilled with
    | [] ->
        let fl = rewrite_physical ctx.Context.flat g selection.Select.colors in
        (Iloc.Flat.to_routine fl, r)
    | spilled_nodes ->
        (* Select's uncolored set can include spill temporaries from an
           earlier round when it colored optimistically-pushed candidates
           in an unlucky order.  Spilling a temporary is never useful —
           its live range is already minimal — so defer temporaries
           whenever real live ranges are also uncolored; the real spills
           lower the pressure that pinched the temporary.  If only
           temporaries remain uncolored, pressure genuinely exceeds the
           machine and Spill_code raises. *)
        let infinite = ctx.Context.infinite in
        let spilled_nodes =
          let temps, real =
            List.partition
              (fun i -> Reg.Tbl.mem infinite (Interference.reg g i))
              spilled_nodes
          in
          match (real, temps) with
          | _ :: _, _ -> real
          | [], temps ->
              (* Only temporaries are uncolored: every color at their
                 program points is held by some longer live range.  Evict
                 the cheapest finite-cost neighbor of each stuck
                 temporary instead — that frees a color where it is
                 needed, and the temporary colors next round. *)
              let victims =
                List.filter_map
                  (fun t ->
                    Interference.neighbors g t
                    |> List.filter (fun nb -> costs.(nb) < infinity)
                    |> function
                    | [] -> None
                    | nb :: nbs ->
                        Some
                          (List.fold_left
                             (fun best c ->
                               if costs.(c) < costs.(best) then c else best)
                             nb nbs))
                  temps
                |> List.sort_uniq Int.compare
              in
              if List.is_empty victims then
                raise
                  (Allocation_error
                     (Printf.sprintf
                        "%s: register pressure irreducible at k=%d/%d" name
                        machine.Machine.k_int machine.Machine.k_float));
              victims
        in
        Context.count ctx Stats.Spilled_ranges (List.length spilled_nodes);
        let fl =
          Context.time ctx Stats.Spill (fun () ->
              let spilled = List.map (Interference.reg g) spilled_nodes in
              let st, fl =
                Spill_code.insert_flat ctx.Context.flat ~tags:ctx.Context.tags
                  ~infinite ~spilled ~slot_counter
              in
              spilled_memory := !spilled_memory + st.Spill_code.memory_lrs;
              spilled_remat := !spilled_remat + st.Spill_code.remat_lrs;
              fl)
        in
        (* The spliced arena is the next round's routine: every derived
           structure is rebuilt from it (the round's one build). *)
        Context.invalidate ctx;
        ctx.Context.flat <- fl;
        round (r + 1)
  in
  let cfg, rounds = round 1 in
  if verify then verify_output ~input ~output:cfg ~machine;
  ( {
      cfg;
      mode = ctx.Context.mode;
      machine;
      rounds;
      spilled_memory = !spilled_memory;
      spilled_remat = !spilled_remat;
      spill_slots = !slot_counter;
      n_values;
      n_live_ranges;
      n_splits;
      coalesced_copies = ctx.Context.coalesced;
      stats = ctx.Context.stats;
    },
    !snap )

(* The decoupled SSA pipeline (§ Ssa_alloc): spill to MaxLive ≤ k on SSA
   form, color the chordal graph greedily, destruct on colored code.
   The flat-arena and counting-scatter machinery is specific to the
   interference-graph pipeline and does not apply here. *)
let allocate_ssa ~verify ~mode ~machine ~max_rounds (input : Cfg.t) =
  let stats = Stats.create () in
  let cfg0 = Cfg.split_critical_edges input in
  let r =
    try Ssa_alloc.run ~mode ~machine ~max_rounds ~stats cfg0
    with Spill_code.Pressure_too_high msg -> raise (Allocation_error msg)
  in
  let cfg = r.Ssa_alloc.cfg in
  if verify then verify_output ~input ~output:cfg ~machine;
  {
    cfg;
    mode;
    machine;
    rounds = r.Ssa_alloc.rounds;
    spilled_memory = r.Ssa_alloc.spilled_memory;
    spilled_remat = r.Ssa_alloc.spilled_remat;
    spill_slots = r.Ssa_alloc.spill_slots;
    n_values = r.Ssa_alloc.n_values;
    (* SSA values are never coarsened into live ranges — each value is
       its own coloring unit. *)
    n_live_ranges = r.Ssa_alloc.n_values;
    n_splits = 0;
    coalesced_copies = r.Ssa_alloc.coalesced;
    stats;
  }

(* Control-flow analysis: dominators and loop structure.  Renumber and
   the splitting schemes do not add or remove blocks, so loop depths
   computed here remain valid throughout allocation. *)
let loops_of (cfg0 : Cfg.t) =
  Dataflow.Loops.compute cfg0 (Dataflow.Dominance.compute cfg0)

(* The cold path.  A §6 loop scheme rewrites the routine after renumber,
   so its first round's front half describes no routine an edit can
   renumber to: no snapshot is taken. *)
let allocate_cold ~capture ~verify ~mode ~machine ~max_rounds (input : Cfg.t) =
  validate_input input;
  if Mode.is_ssa mode then
    (allocate_ssa ~verify ~mode ~machine ~max_rounds input, None)
  else begin
    let stats = Stats.create () in
    let cfg0 = Cfg.split_critical_edges input in
    let loops = Stats.time stats ~round:0 Stats.Cfa (fun () -> loops_of cfg0) in
    let fr =
      Stats.time stats ~round:0 Stats.Renum (fun () ->
          Renumber.run_flat mode (Iloc.Flat.of_routine cfg0))
    in
    (* §6 loop-boundary splitting schemes, layered after renumber. *)
    let split_pairs, flat =
      Splitting.phase mode stats ~tags:fr.Renumber.f_tags
        ~split_pairs:fr.Renumber.f_split_pairs fr.Renumber.fl
    in
    let ctx =
      Context.create ~mode ~machine ~loops
        ~tags:fr.Renumber.f_tags ~split_pairs ~stats flat
    in
    color_rounds
      ~capture:(capture && Mode.loop_scheme mode = None)
      ~verify ~max_rounds ~n_values:fr.Renumber.f_n_values
      ~n_live_ranges:fr.Renumber.f_n_live_ranges input ctx
  end

let allocate ?(verify = false) ?(mode = Mode.Briggs_remat)
    ?(machine = Machine.standard) ?(max_rounds = 64) input =
  fst (allocate_cold ~capture:false ~verify ~mode ~machine ~max_rounds input)

let allocate_snapshot ?(mode = Mode.Briggs_remat) ?(machine = Machine.standard)
    input =
  allocate_cold ~capture:true ~verify:false ~mode ~machine ~max_rounds:64
    input

(* Opcode equality modulo the payloads liveness and the interference
   graph cannot observe.  Branch targets and symbol names are kept (they
   shape the CFG resp. stay conservative); numeric, float and relation
   payloads are erased. *)
let erase_payload (o : Instr.op) : Instr.op =
  match o with
  | Instr.Ldi _ -> Instr.Ldi 0
  | Instr.Lfi _ -> Instr.Lfi 0.
  | Instr.Laddr (s, _) -> Instr.Laddr (s, 0)
  | Instr.Lfp _ -> Instr.Lfp 0
  | Instr.Ldro (s, _) -> Instr.Ldro (s, 0)
  | Instr.Cmp _ -> Instr.Cmp Instr.Eq
  | Instr.Fcmp _ -> Instr.Fcmp Instr.Eq
  | Instr.Addi _ -> Instr.Addi 0
  | Instr.Subi _ -> Instr.Subi 0
  | Instr.Muli _ -> Instr.Muli 0
  | Instr.Loadi _ -> Instr.Loadi 0
  | Instr.Storei _ -> Instr.Storei 0
  | Instr.Spill _ -> Instr.Spill 0
  | Instr.Reload _ -> Instr.Reload 0
  | o -> o

(* Same live-range skeleton: block-for-block labels and extents,
   instruction-for-instruction destinations, source multisets (order is
   invisible to liveness and the build) and payload-erased opcodes.  An
   absent operand is {!Iloc.Flat.none} in both arenas, so the sorted
   operand triples also compare source counts. *)
let skeleton_equal (a : Iloc.Flat.t) (b : Iloc.Flat.t) =
  let module F = Iloc.Flat in
  let sorted_srcs fl slot =
    let s = [| F.src fl slot 0; F.src fl slot 1; F.src fl slot 2 |] in
    Array.sort Int.compare s;
    s
  in
  let slot_equal s =
    F.tag a s = F.tag b s
    && F.dst a s = F.dst b s
    && sorted_srcs a s = sorted_srcs b s
    && Instr.equal_op
         (erase_payload (F.decode_op a s))
         (erase_payload (F.decode_op b s))
  in
  let rec slots_equal s = s < 0 || (slot_equal s && slots_equal (s - 1)) in
  a.F.entry = b.F.entry
  && Array.length a.F.labels = Array.length b.F.labels
  && Array.for_all2 String.equal a.F.labels b.F.labels
  && a.F.block_start = b.F.block_start
  && slots_equal (F.n_instrs a - 1)

type path = Incremental | Cold

(* A snapshot exists only for modes without a loop scheme, so the
   renumbered arena is the routine coloring starts from. *)
let allocate_incremental ?(verify = false) ?(max_rounds = 64)
    (snap : snapshot) (input : Cfg.t) =
  validate_input input;
  let mode = snap.snap_mode and machine = snap.snap_machine in
  let stats = Stats.create () in
  let cfg0 = Cfg.split_critical_edges input in
  let fr =
    Stats.time stats ~round:0 Stats.Renum (fun () ->
        Renumber.run_flat mode (Iloc.Flat.of_routine cfg0))
  in
  let reuse =
    skeleton_equal snap.snap_flat fr.Renumber.fl
    && List.equal
         (fun (a, b) (c, d) -> Reg.equal a c && Reg.equal b d)
         snap.snap_split_pairs fr.Renumber.f_split_pairs
  in
  (* A skeleton miss continues cold from the arena just renumbered:
     only the edited routine's loops are missing. *)
  let loops =
    if reuse then snap.snap_loops
    else Stats.time stats ~round:0 Stats.Cfa (fun () -> loops_of cfg0)
  in
  let ctx =
    Context.create ~mode ~machine ~loops ~tags:fr.Renumber.f_tags
      ~split_pairs:fr.Renumber.f_split_pairs ~stats fr.Renumber.fl
  in
  (* On reuse, prime the caches: boundary liveness is shared read-only
     (no phase ever writes a row, and the context recycles only rows it
     computed itself); the graph is deep-copied because coalescing will
     mutate it.  Round 1 then performs no Liveness_runs and no
     Full_builds — the observable signature of the incremental path. *)
  if reuse then begin
    ctx.Context.boundary <- Some snap.snap_boundary;
    ctx.Context.graph <- Some (Interference.copy snap.snap_graph)
  end;
  match
    color_rounds ~capture:(not reuse) ~verify ~max_rounds
      ~n_values:fr.Renumber.f_n_values
      ~n_live_ranges:fr.Renumber.f_n_live_ranges input ctx
  with
  | res, Some fresh -> (Cold, res, fresh)
  | res, None ->
      (* The edited routine's renumbered arena is immutable: the derived
         snapshot reuses the base's liveness and graph, which the
         skeleton check proved describe it too. *)
      ( Incremental,
        res,
        {
          snap with
          snap_flat = fr.Renumber.fl;
          snap_split_pairs = fr.Renumber.f_split_pairs;
        } )

let check (res : result) =
  let errs = ref [] in
  (match Iloc.Validate.routine res.cfg with
  | Ok () -> ()
  | Error es -> errs := List.map Iloc.Validate.error_to_string es);
  let k = Machine.k_for res.machine in
  Cfg.iter_instrs
    (fun b i ->
      List.iter
        (fun r ->
          if Reg.id r >= k (Reg.cls r) then
            errs :=
              Printf.sprintf "%s/%s: %s exceeds machine registers"
                res.cfg.Cfg.name b.Iloc.Block.label (Reg.to_string r)
              :: !errs)
        (Instr.defs i @ Instr.uses i))
    res.cfg;
  match !errs with [] -> Ok () | es -> Error es
