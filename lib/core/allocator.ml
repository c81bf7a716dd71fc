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

(* Spill rounds any path runs before giving up with {!Allocation_error}. *)
let max_rounds = 64

(* A round's from-scratch start: boundary liveness of the arena over the
   front half's block order, then the live-range numbering and the
   graph build.  Post-renumber register names are sparse in id space
   (live-range representatives survive unioning), so the graph indexes
   nodes through the dense numbering ([Reg_index.of_flat]) rather than
   anything id-width; boundary rows feed the build directly, so dense
   liveness is never materialized.  Both working sets recycle the
   previous round's storage through the context's scratches. *)
let build (ctx : Context.t) =
  let fl = ctx.Context.flat in
  let bl =
    Context.time ctx Stats.Liveness (fun () ->
        Dataflow.Liveness.Boundary.compute ~order:ctx.Context.order
          ~scratch:ctx.Context.boundary_scratch fl)
  in
  Context.count ctx Stats.Liveness_runs 1;
  let on_pairs ~emitted ~dropped =
    Context.count ctx Stats.Build_pairs emitted;
    Context.count ctx Stats.Build_dupes dropped
  in
  let g =
    Context.time ctx Stats.Build (fun () ->
        Interference.build_flat_boundary ~scratch:ctx.Context.build_scratch
          ~on_pairs ~k:ctx.Context.k (Dataflow.Reg_index.of_flat fl) fl bl)
  in
  Context.count ctx Stats.Full_builds 1;
  g

(* The coalescing loop, incremental (§2, §4.2): every sweep after the
   round's one build updates the graph in place (Chaitin's neighbor-set
   union), so iterating to the coalescing fixpoint costs sweeps over the
   copies, not rebuilds.  Unrestricted copies first, then conservative
   coalescing of splits; the arena is renamed once, after the last
   sweep. *)
let coalesce (ctx : Context.t) g =
  let wl = Coalesce.worklist ctx g in
  let before = ctx.Context.coalesced in
  let phase = ref Coalesce.Unrestricted in
  let rec loop () =
    let outcome = Coalesce.pass !phase ctx g wl in
    if outcome.Coalesce.changed then loop ()
    else
      match !phase with
      | Coalesce.Unrestricted when Mode.splits ctx.Context.mode ->
          phase := Coalesce.Conservative;
          loop ()
      | Coalesce.Unrestricted | Coalesce.Conservative -> ()
  in
  loop ();
  if ctx.Context.coalesced > before then Coalesce.rewrite ctx g wl;
  (* The graph is this round's build, mutated in place by the sweeps
     above; the union edges their merges added are this round's growth
     beyond the build. *)
  Context.count ctx Stats.Build_overlay (Interference.union_edges g);
  wl

(* Identity copies — split or ordinary copies whose two live ranges
   received the same color, the situation biased coloring sets up — are
   deleted at rewrite time (§3.4), by the same pass that renames
   coalesced registers. *)
let rewrite_physical fl g (colors : int option array) =
  Coalesce.rename g
    (fun i -> match colors.(i) with Some c -> c | None -> assert false)
    fl

let verify_output ~input ~output ~(machine : Machine.t) =
  match
    Verify.Check.routine ~input ~output ~k_int:machine.Machine.k_int
      ~k_float:machine.Machine.k_float
  with
  | Ok _ -> ()
  | Error errs ->
      raise (Verification_error (List.map Verify.Error.to_string errs))

(* Where every allocation starts, in both families and from every entry
   point: validate, and refuse a routine outside the verifier's source
   domain (spill code already in it would share frame slots with the
   allocator's own); then, as round 0's [cfa], split critical edges,
   encode once, and compute the one dominator tree and loop nest on that
   arena.  No later phase adds a block or an edge, so both hold to the
   end. *)
type front = {
  stats : Stats.t;
  flat : Iloc.Flat.t;
  dom : Dataflow.Dominance.t;
  loops : Dataflow.Loops.t;
}

let front_half input =
  let invalid msgs =
    raise
      (Allocation_error
         (Printf.sprintf "invalid input routine: %s" (String.concat "; " msgs)))
  in
  let stats = Stats.create () in
  Stats.time stats ~round:0 Stats.Validate (fun () ->
      (match Iloc.Validate.routine input with
      | Ok () -> ()
      | Error es -> invalid (List.map Iloc.Validate.error_to_string es));
      Option.iter
        (fun e -> invalid [ Verify.Error.to_string e ])
        (Verify.Check.source_gate input));
  Stats.time stats ~round:0 Stats.Cfa (fun () ->
      let flat = Iloc.Flat.of_routine (Cfg.split_critical_edges input) in
      let dom = Dataflow.Dominance.compute_flat flat in
      { stats; flat; dom; loops = Dataflow.Loops.compute_flat flat dom })

(* The Chaitin–Briggs family's start on the front half: renumber, the
   mode's §6 loop scheme, and the context the rounds run in. *)
let renumber ~mode ~machine (f : front) =
  let fr =
    Stats.time f.stats ~round:0 Stats.Renum (fun () ->
        Renumber.run_flat mode ~dom:f.dom f.flat)
  in
  let order = Dataflow.Dominance.postorder f.dom in
  let split_pairs, flat =
    Splitting.phase mode f.stats ~loops:f.loops ~order ~tags:fr.Renumber.f_tags
      ~split_pairs:fr.Renumber.f_split_pairs fr.Renumber.fl
  in
  ( fr,
    Context.create ~mode ~machine ~loops:f.loops ~order
      ~tags:fr.Renumber.f_tags ~split_pairs ~stats:f.stats flat )

let context ~mode ~machine f = snd (renumber ~mode ~machine f)

(* Incremental re-allocation.

   A snapshot captures everything a {e small edit} of the routine leaves
   valid: the renumbered arena (pristine, before any coalescing) and the
   freshly built interference graph.  A cold allocation takes it from
   its own first round, after the build and before the first coalescing
   sweep, so none of it is computed twice.  The graph depends only on
   which registers each instruction defines and uses, on which
   instructions are copies, and on terminator targets — never on
   immediate/offset payloads or source-operand order — so an edit that
   preserves that skeleton (after renumbering) can skip the from-scratch
   liveness + build and go straight to coalescing on a private copy of
   the snapshot's graph.

   Renumbering itself is {e not} skipped: tag unioning can coincide
   differently under a payload change (two values whose remat tags were
   accidentally equal stop being unioned, or start), which changes the
   live-range skeleton.  The skeleton check below detects exactly that,
   and the edit then continues cold from the arena it has renumbered,
   so reuse is always sound: a snapshot's graph starts a round only when
   it provably describes the edited routine too. *)

type snapshot = {
  snap_mode : Mode.t;
  snap_machine : Machine.t;
  snap_flat : Iloc.Flat.t;
  snap_split_pairs : (Reg.t * Reg.t) list;
  snap_graph : Interference.t;
}

(* Round 1's start, before coalescing touches it.  Arenas are
   immutable (coalescing and spill code replace [ctx.flat]), so the
   arena is shared; the graph is copied, since coalescing merges in
   place. *)
let take_snapshot (ctx : Context.t) g =
  {
    snap_mode = ctx.Context.mode;
    snap_machine = ctx.Context.machine;
    snap_flat = ctx.Context.flat;
    snap_split_pairs = ctx.Context.split_pairs;
    snap_graph = Context.time ctx Stats.Build (fun () -> Interference.copy g);
  }

(* Of a round's uncolored nodes, the ones to spill.  Select's uncolored
   set can include spill temporaries from an earlier round when it
   colored optimistically-pushed candidates in an unlucky order.
   Spilling a temporary is never useful — its live range is already
   minimal — so defer temporaries whenever real live ranges are also
   uncolored; the real spills lower the pressure that pinched the
   temporary.  If only temporaries remain uncolored, pressure genuinely
   exceeds the machine and Spill_code raises. *)
let spill_victims ~name (ctx : Context.t) g costs spilled_nodes =
  let temps, real =
    List.partition
      (fun i -> Reg.Tbl.mem ctx.Context.infinite (Interference.reg g i))
      spilled_nodes
  in
  match (real, temps) with
  | _ :: _, _ -> real
  | [], temps ->
      (* Only temporaries are uncolored: every color at their program
         points is held by some longer live range.  Evict the cheapest
         finite-cost neighbor of each stuck temporary instead — that
         frees a color where it is needed, and the temporary colors next
         round. *)
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
      if List.is_empty victims then begin
        let machine = ctx.Context.machine in
        raise
          (Allocation_error
             (Printf.sprintf "%s: register pressure irreducible at k=%d/%d"
                name machine.Machine.k_int machine.Machine.k_float))
      end;
      victims

(* The spill-round loop, shared by the cold path and
   [allocate_incremental]'s reuse path, where round 1 starts from a copy
   of the snapshot's graph ([primed]) instead of a build.  Each round is
   the paper's fixed sequence — build, coalesce, spill costs, simplify,
   select, then either the rewrite to physical registers or spill code —
   with the round's graph and worklist passed from phase to phase.
   Colors the context's arena and bridges the result to [Cfg.t], the
   loop's only bridge.  Of renumbering's result it takes only the two
   counts it reports, so the round-0 arena is not kept alive through the
   rounds.  With [~capture], round 1 also takes the snapshot. *)
let color_rounds ~capture ~primed ~verify ~n_values ~n_live_ranges
    (input : Cfg.t) (ctx : Context.t) =
  let name = input.Cfg.name in
  let machine = ctx.Context.machine in
  let n_splits = List.length ctx.Context.split_pairs in
  let slots = lazy (Iloc.Reg.Tbl.create 8) and slot_counter = ref 0 in
  let spilled_memory = ref 0 and spilled_remat = ref 0 in
  let snap = ref None in
  let rec round r =
    if r > max_rounds then
      raise
        (Allocation_error
           (Printf.sprintf "%s: no coloring after %d rounds" name max_rounds));
    Context.set_round ctx r;
    let g =
      match primed with
      | Some snap_graph when r = 1 ->
          Context.time ctx Stats.Build (fun () -> Interference.copy snap_graph)
      | _ -> build ctx
    in
    if capture && r = 1 then snap := Some (take_snapshot ctx g);
    let wl = coalesce ctx g in
    let costs = Spill_cost.phase ctx g in
    let order = Simplify.phase ctx g ~costs in
    let selection =
      Select.phase ctx g ~split_nodes:wl.Coalesce.split_nodes ~order
    in
    match selection.Select.spilled with
    | [] ->
        let cfg =
          Context.time ctx Stats.Rewrite (fun () ->
              Iloc.Flat.to_routine
                (rewrite_physical ctx.Context.flat g selection.Select.colors))
        in
        (cfg, r)
    | spilled_nodes ->
        let fl =
          Context.time ctx Stats.Spill (fun () ->
              let spilled_nodes =
                spill_victims ~name ctx g costs spilled_nodes
              in
              Context.count ctx Stats.Spilled_ranges
                (List.length spilled_nodes);
              let spilled = List.map (Interference.reg g) spilled_nodes in
              let st, fl =
                Spill_code.insert_flat ctx.Context.flat ~phis:[||]
                  ~tags:ctx.Context.tags ~infinite:ctx.Context.infinite
                  ~spilled ~slots:(Lazy.force slots) ~slot_counter
              in
              spilled_memory := !spilled_memory + st.Spill_code.memory_lrs;
              spilled_remat := !spilled_remat + st.Spill_code.remat_lrs;
              fl)
        in
        (* The spliced arena is the next round's routine: the next
           round's build derives everything else from it. *)
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
   form, color the chordal graph greedily, destruct on colored code. *)
let allocate_ssa ~verify ~mode ~machine (input : Cfg.t) (f : front) =
  let r =
    try
      Ssa_alloc.run ~mode ~machine ~max_rounds ~stats:f.stats ~dom:f.dom
        ~loops:f.loops f.flat
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
    stats = f.stats;
  }

(* The cold path.  A §6 loop scheme rewrites the routine after renumber,
   so its first round's snapshot would describe no routine an edit can
   renumber to: none is taken. *)
let allocate_cold ~capture ~verify ~mode ~machine (input : Cfg.t) =
  let f = front_half input in
  if Mode.is_ssa mode then (allocate_ssa ~verify ~mode ~machine input f, None)
  else
    let fr, ctx = renumber ~mode ~machine f in
    color_rounds
      ~capture:(capture && Mode.loop_scheme mode = None)
      ~primed:None ~verify ~n_values:fr.Renumber.f_n_values
      ~n_live_ranges:fr.Renumber.f_n_live_ranges input ctx

let allocate ?(verify = false) ?(mode = Mode.Briggs_remat)
    ?(machine = Machine.standard) input =
  fst (allocate_cold ~capture:false ~verify ~mode ~machine input)

let allocate_snapshot ?(mode = Mode.Briggs_remat) ?(machine = Machine.standard)
    input =
  allocate_cold ~capture:true ~verify:false ~mode ~machine input

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
   renumbered arena is the routine coloring starts from.  The edit runs
   the whole front half, like any allocation; only the first round's
   liveness and build can be skipped. *)
let allocate_incremental (snap : snapshot) (input : Cfg.t) =
  let fr, ctx =
    renumber ~mode:snap.snap_mode ~machine:snap.snap_machine (front_half input)
  in
  let reuse =
    skeleton_equal snap.snap_flat fr.Renumber.fl
    && List.equal
         (fun (a, b) (c, d) -> Reg.equal a c && Reg.equal b d)
         snap.snap_split_pairs fr.Renumber.f_split_pairs
  in
  (* On reuse, round 1 starts from a private copy of the snapshot's
     graph (coalescing will mutate it) and performs no Liveness_runs and
     no Full_builds — the observable signature of the incremental
     path. *)
  match
    color_rounds ~capture:(not reuse)
      ~primed:(if reuse then Some snap.snap_graph else None)
      ~verify:false
      ~n_values:fr.Renumber.f_n_values
      ~n_live_ranges:fr.Renumber.f_n_live_ranges input ctx
  with
  | res, Some fresh -> (Cold, res, fresh)
  | res, None ->
      (* The edited routine's renumbered arena is immutable: the derived
         snapshot reuses the base's graph, which the skeleton check
         proved describes it too. *)
      ( Incremental,
        res,
        {
          snap with
          snap_flat = fr.Renumber.fl;
          snap_split_pairs = fr.Renumber.f_split_pairs;
        } )

let check (res : result) =
  let { Machine.k_int; k_float; _ } = res.machine in
  let invalid =
    match Iloc.Validate.routine res.cfg with
    | Ok () -> []
    | Error es -> List.map Iloc.Validate.error_to_string es
  in
  let over = Verify.Check.over_k ~k_int ~k_float res.cfg in
  match invalid @ List.map Verify.Error.to_string over with
  | [] -> Ok ()
  | es -> Error es
