(* Executable specifications of the allocator's phases, kept as they
   stood before the arena and worklist rewrites.  Property tests assert
   the production phases produce byte-identical results, and the scale
   benchmark byte-compares its small tier's phases against them:

   - [Liveness]: the structured liveness walks (non-SSA and φ-aware),
     the per-block MaxLive walk and the register-list accessors, over
     [Order.postorder], against [Dataflow.Liveness.compute] on the arena;
   - [Spill_code.insert]: the §3.2 spill rewrite on the structured
     routine, against [Remat.Spill_code.insert_flat];
   - [Renumber.run]: the six-step renumber on the structured routine,
     through an SSA routine, against [Remat.Renumber.run_flat];
   - [Interference.build]: the structured build, deduplicating through
     [add_edge], against the arena's counting scatter;
   - the coloring core before the worklist/heap optimization (same
     simplify stack, same colors, same coalesced routine) and the
     structured spill-cost walk;
   - the SSA family's spill costs and MaxLive selection on [Reg.Set]
     live sets and a [Reg.Tbl] cost table, against
     [Remat.Ssa_alloc.cost_table]/[select];
   - the ILOC text layer: the list lexer, the [Format] printer and the
     [Reg.Set] must-defined check, against [Iloc.Parser.lex],
     [Iloc.Printer.routine_to_string] and [Iloc.Validate.routine].

   Deliberately not kept in sync stylistically with lib/core: this code
   must stay what it is. *)

module Reg = Iloc.Reg
module Instr = Iloc.Instr
module Context = Remat.Context
module Stats = Remat.Stats
module Tag = Remat.Tag

(* The depth-first orders over a structured routine that the
   structured liveness walk seeded its worklist from. *)
module Order = struct
  let postorder (cfg : Iloc.Cfg.t) =
    fst
      (Dataflow.Order.dfs_postorder ~n:(Iloc.Cfg.n_blocks cfg) ~entry:cfg.entry
         ~succs:(Iloc.Cfg.succs cfg))

  let reachable (cfg : Iloc.Cfg.t) =
    snd
      (Dataflow.Order.dfs_postorder ~n:(Iloc.Cfg.n_blocks cfg) ~entry:cfg.entry
         ~succs:(Iloc.Cfg.succs cfg))
end

(* Liveness as it stood on the structured routine: the non-SSA walk
   that rejected φ-nodes, the φ-aware walk the SSA family spilled on, the
   per-block MaxLive walk, and the register-list accessors, over a copy
   of the worklist solver.  [Dataflow.Liveness.compute] on the arena
   must produce the same rows. *)
module Liveness = struct
  module Bitset = Dataflow.Bitset
  module Reg_index = Dataflow.Reg_index
  module Worklist = Dataflow.Worklist

  type t = Dataflow.Liveness.t = {
    regs : Reg_index.t;
    pmap : int array;
    live_in : Bitset.t array;
    live_out : Bitset.t array;
    ue : Bitset.t array;
    kill : Bitset.t array;
  }

  (* The worklist fixpoint, shared by every entry point.  [succs_iter]/
     [preds_iter] abstract the edge representation (lists for the
     structured view, CSR for the flat one); everything else — bucket
     order, seed sweep, change propagation — is identical, so the flat
     and structured paths converge to bit-identical sets. *)
  let solve ~nb ~nr ~po ~succs_iter ~preds_iter ~live_in ~live_out ~ue ~kill =
    let pos = Array.make nb (-1) in
    Array.iteri (fun i b -> pos.(b) <- i) po;
    let queued = Array.make nb false in
    let q = Worklist.Buckets.create ~keys:(max nb 1) in
    Array.iteri
      (fun i b ->
        Worklist.Buckets.push q ~key:i b;
        queued.(b) <- true)
      po;
    let tmp = Bitset.create nr in
    let continue = ref true in
    while !continue do
      match Worklist.Buckets.pop_min q with
      | None -> continue := false
      | Some b ->
          queued.(b) <- false;
          succs_iter b (fun s ->
              ignore (Bitset.union_into ~dst:live_out.(b) live_in.(s)));
          Bitset.clear tmp;
          ignore (Bitset.union_into ~dst:tmp live_out.(b));
          ignore (Bitset.diff_into ~dst:tmp kill.(b));
          ignore (Bitset.union_into ~dst:tmp ue.(b));
          if Bitset.union_into ~dst:live_in.(b) tmp then
            preds_iter b (fun p ->
                if pos.(p) >= 0 && not queued.(p) then begin
                  Worklist.Buckets.push q ~key:pos.(p) p;
                  queued.(p) <- true
                end)
    done

  let compute ?order (cfg : Iloc.Cfg.t) =
    if Iloc.Cfg.in_ssa cfg then
      invalid_arg "Liveness.compute: routine is in SSA form";
    let regs = Reg_index.of_cfg cfg in
    let nr = Reg_index.count regs in
    let nb = Iloc.Cfg.n_blocks cfg in
    let ue = Array.init nb (fun _ -> Bitset.create nr) in
    let kill = Array.init nb (fun _ -> Bitset.create nr) in
    Iloc.Cfg.iter_blocks
      (fun b ->
        let ue_b = ue.(b.id) and kill_b = kill.(b.id) in
        Iloc.Block.iter_instrs
          (fun i ->
            List.iter
              (fun u ->
                (* Reg_index indices are < nr by construction. *)
                let ui = Reg_index.index regs u in
                if not (Bitset.unsafe_mem kill_b ui) then Bitset.unsafe_add ue_b ui)
              (Iloc.Instr.uses i);
            List.iter
              (fun d -> Bitset.unsafe_add kill_b (Reg_index.index regs d))
              (Iloc.Instr.defs i))
          b)
      cfg;
    let live_in = Array.init nb (fun _ -> Bitset.create nr) in
    let live_out = Array.init nb (fun _ -> Bitset.create nr) in
    (* Priority worklist, keyed by postorder position: for this backward
       problem a block's successors are (back edges aside) visited first,
       so most blocks settle in one pass.  After the seed sweep a block is
       re-examined only when [live_in] of one of its successors grew — the
       invariant is that any block off the worklist has
       [live_in = ue ∪ (live_out \ kill)] with [live_out] current w.r.t.
       its successors' [live_in].  Unlike a FIFO, the bucket worklist
       always resumes at the pending block earliest in the postorder, so a
       re-queued loop body is reprocessed before work queued behind it;
       the fixpoint is unique, so only convergence speed depends on this
       order.  Unreachable blocks are not in the postorder and keep empty
       sets; edges from them are ignored. *)
    let po = match order with Some o -> o | None -> Order.postorder cfg in
    solve ~nb ~nr ~po
      ~succs_iter:(fun b f -> List.iter f (Iloc.Cfg.succs cfg b))
      ~preds_iter:(fun b f -> List.iter f (Iloc.Cfg.preds cfg b))
      ~live_in ~live_out ~ue ~kill;
    { regs; pmap = Reg_index.packed_map regs; live_in; live_out; ue; kill }

  (* φ-aware liveness over an SSA-form routine, for the decoupled
     spill-then-color pipeline.  The equations treat a φ-node's arguments
     as used at the end of the matching predecessor and its destination as
     defined at the block's entry (Bouchez–Darte–Rastello):

       kill(b)     = instruction defs of b ∪ φ destinations of b
       ue(b)       = upward-exposed instruction uses of b (φ args excluded)
       live_out(b) = ∪_{s ∈ succ(b)} (live_in(s) ∪ φ-args on edge b→s)
       live_in(b)  = ue(b) ∪ (live_out(b) \ kill(b))

     The edge-specific φ-arg term is constant, so it is folded into the
     initial [live_out] seed and the shared worklist [solve] — which only
     ever grows [live_out] by successors' [live_in] — computes the rest. *)
  let compute_ssa ?order (cfg : Iloc.Cfg.t) =
    let regs = Reg_index.of_cfg cfg in
    let nr = Reg_index.count regs in
    let nb = Iloc.Cfg.n_blocks cfg in
    let ue = Array.init nb (fun _ -> Bitset.create nr) in
    let kill = Array.init nb (fun _ -> Bitset.create nr) in
    let live_in = Array.init nb (fun _ -> Bitset.create nr) in
    let live_out = Array.init nb (fun _ -> Bitset.create nr) in
    Iloc.Cfg.iter_blocks
      (fun b ->
        let ue_b = ue.(b.Iloc.Block.id) and kill_b = kill.(b.Iloc.Block.id) in
        List.iter
          (fun (p : Iloc.Phi.t) ->
            Bitset.unsafe_add kill_b (Reg_index.index regs p.Iloc.Phi.dst);
            List.iter
              (fun (pred, arg) ->
                Bitset.unsafe_add live_out.(pred) (Reg_index.index regs arg))
              p.Iloc.Phi.args)
          b.Iloc.Block.phis;
        Iloc.Block.iter_instrs
          (fun i ->
            List.iter
              (fun u ->
                let ui = Reg_index.index regs u in
                if not (Bitset.unsafe_mem kill_b ui) then Bitset.unsafe_add ue_b ui)
              (Iloc.Instr.uses i);
            List.iter
              (fun d -> Bitset.unsafe_add kill_b (Reg_index.index regs d))
              (Iloc.Instr.defs i))
          b)
      cfg;
    let po = match order with Some o -> o | None -> Order.postorder cfg in
    solve ~nb ~nr ~po
      ~succs_iter:(fun b f -> List.iter f (Iloc.Cfg.succs cfg b))
      ~preds_iter:(fun b f -> List.iter f (Iloc.Cfg.preds cfg b))
      ~live_in ~live_out ~ue ~kill;
    { regs; pmap = Reg_index.packed_map regs; live_in; live_out; ue; kill }

  (* Pointwise register pressure of an SSA routine, per block and class,
     from the boundary rows of {!compute_ssa}: one backward walk per block
     from [live_out] (which includes φ-args of successor edges), noting
     the peak before/after every instruction, plus the block-entry point
     where live-in values and all φ destinations are live at once (the
     entry parallel copy has written every destination before any body
     instruction runs). *)
  let max_live_ssa (cfg : Iloc.Cfg.t) (t : t) =
    let nb = Iloc.Cfg.n_blocks cfg in
    let mi = Array.make nb 0 and mf = Array.make nb 0 in
    let nr = Reg_index.count t.regs in
    let is_float = Array.make nr false in
    for i = 0 to nr - 1 do
      is_float.(i) <- Iloc.Reg.is_float (Reg_index.reg t.regs i)
    done;
    Iloc.Cfg.iter_blocks
      (fun b ->
        let id = b.Iloc.Block.id in
        let live = Bitset.create nr in
        ignore (Bitset.union_into ~dst:live t.live_out.(id));
        let ci = ref 0 and cf = ref 0 in
        Bitset.iter (fun i -> if is_float.(i) then incr cf else incr ci) live;
        let note () =
          if !ci > mi.(id) then mi.(id) <- !ci;
          if !cf > mf.(id) then mf.(id) <- !cf
        in
        note ();
        let add i =
          if not (Bitset.mem live i) then begin
            Bitset.add live i;
            if is_float.(i) then incr cf else incr ci
          end
        in
        let remove i =
          if Bitset.mem live i then begin
            Bitset.remove live i;
            if is_float.(i) then decr cf else decr ci
          end
        in
        let instr (i : Iloc.Instr.t) =
          (* At the definition point the destination coexists with
             everything live after the instruction (a dead definition
             still occupies a register there). *)
          List.iter (fun d -> add (Reg_index.index t.regs d)) (Iloc.Instr.defs i);
          note ();
          List.iter
            (fun d -> remove (Reg_index.index t.regs d))
            (Iloc.Instr.defs i);
          List.iter (fun u -> add (Reg_index.index t.regs u)) (Iloc.Instr.uses i);
          note ()
        in
        instr b.Iloc.Block.term;
        List.iter instr (List.rev b.Iloc.Block.body);
        (* Block entry, after the φ parallel copy: live-in ∪ φ dests. *)
        List.iter
          (fun (p : Iloc.Phi.t) ->
            add (Reg_index.index t.regs p.Iloc.Phi.dst))
          b.Iloc.Block.phis;
        note ())
      cfg;
    (mi, mf)

  let to_regs t set =
    Bitset.fold (fun i acc -> Reg_index.reg t.regs i :: acc) set [] |> List.rev

  let live_in t b = to_regs t t.live_in.(b)
  let live_out t b = to_regs t t.live_out.(b)

  let live_in_mem t b r =
    match Reg_index.index_opt t.regs r with
    | Some i -> Bitset.mem t.live_in.(b) i
    | None -> false

  let live_out_mem t b r =
    match Reg_index.index_opt t.regs r with
    | Some i -> Bitset.mem t.live_out.(b) i
    | None -> false
end

(* The §3.2 spill rewrite as it stood on the structured routine, with an
   optional shared slot table.  [Remat.Spill_code.insert_flat] must
   splice the same code: same temporaries, slots and stats. *)
module Spill_code = struct
  exception Pressure_too_high = Remat.Spill_code.Pressure_too_high

  type stats = Remat.Spill_code.stats = {
    remat_lrs : int;
    memory_lrs : int;
    new_slots : int;
  }

  let fault_reload_skew = Remat.Spill_code.fault_reload_skew

  let biased op =
    match (op, !Remat.Spill_code.fault_remat_bias) with
    | _, 0 -> op
    | Instr.Ldi n, b -> Instr.Ldi (n + b)
    | _ -> op

  let insert ?slots (cfg : Iloc.Cfg.t) ~tags ~infinite ~spilled ~slot_counter =
    List.iter
      (fun r ->
        if Reg.Tbl.mem infinite r then
          raise
            (Pressure_too_high
               (Printf.sprintf
                  "spill temporary %s selected for spilling; %s has too few registers"
                  (Reg.to_string r) cfg.Iloc.Cfg.name)))
      spilled;
    let spilled_set =
      List.fold_left (fun acc r -> Reg.Set.add r acc) Reg.Set.empty spilled
    in
    let tag_of r = Option.value (Reg.Tbl.find_opt tags r) ~default:Tag.Bottom in
    let slots = match slots with Some s -> s | None -> Reg.Tbl.create 8 in
    let new_slots = ref 0 in
    let slot_of r =
      match Reg.Tbl.find_opt slots r with
      | Some s -> s
      | None ->
          let s = !slot_counter in
          incr slot_counter;
          incr new_slots;
          Reg.Tbl.replace slots r s;
          s
    in
    let fresh_temp src_reg tag =
      let t = Iloc.Cfg.fresh_reg cfg (Reg.cls src_reg) in
      Reg.Tbl.replace tags t tag;
      Reg.Tbl.replace infinite t ();
      t
    in
    let remat_lrs = ref Reg.Set.empty and memory_lrs = ref Reg.Set.empty in
    (* Rewrite one instruction into the sequence replacing it. *)
    let rewrite (i : Instr.t) =
      let dead_remat_def =
        match i.Instr.dst with
        | Some d when Reg.Set.mem d spilled_set && Tag.is_inst (tag_of d) ->
            (* The whole definition is recomputable at each use; by tag
               soundness it must be a never-killed instruction or a copy,
               both side-effect free, so it is simply deleted. *)
            assert (Instr.never_killed i.Instr.op || Instr.is_copy i);
            remat_lrs := Reg.Set.add d !remat_lrs;
            true
        | _ -> false
      in
      if dead_remat_def then []
      else begin
        match (i.Instr.op, i.Instr.dst) with
        | Instr.Copy, Some d
          when Reg.Set.mem i.Instr.srcs.(0) spilled_set
               && Tag.is_inst (tag_of i.Instr.srcs.(0)) -> (
            (* Chaitin's refinement (§3): an uncoalesced copy of a
               never-killed value is eliminated by recomputing directly
               into the desired register. *)
            let s = i.Instr.srcs.(0) in
            remat_lrs := Reg.Set.add s !remat_lrs;
            let op =
              match tag_of s with Tag.Inst op -> op | _ -> assert false
            in
            match Reg.Set.mem d spilled_set with
            | false -> [ Instr.make (biased op) ~dst:d [] ]
            | true ->
                memory_lrs := Reg.Set.add d !memory_lrs;
                let t = fresh_temp d Tag.Bottom in
                [ Instr.make (biased op) ~dst:t []; Instr.spill t (slot_of d) ])
        | _ ->
        let pre = ref [] in
        let substs = ref [] in
        let used_spilled =
          List.sort_uniq Reg.compare (Instr.uses i)
          |> List.filter (fun u -> Reg.Set.mem u spilled_set)
        in
        List.iter
          (fun u ->
            match tag_of u with
            | Tag.Inst op ->
                remat_lrs := Reg.Set.add u !remat_lrs;
                let t = fresh_temp u (Tag.Inst op) in
                pre := Instr.make (biased op) ~dst:t [] :: !pre;
                substs := (u, t) :: !substs
            | Tag.Bottom | Tag.Top ->
                memory_lrs := Reg.Set.add u !memory_lrs;
                let t = fresh_temp u Tag.Bottom in
                pre := Instr.reload t (slot_of u + !fault_reload_skew) :: !pre;
                substs := (u, t) :: !substs)
          used_spilled;
        let subst r =
          match List.assoc_opt r !substs with Some t -> t | None -> r
        in
        let i =
          { i with Instr.srcs = Array.map subst i.Instr.srcs }
        in
        let i, post =
          match i.Instr.dst with
          | Some d when Reg.Set.mem d spilled_set ->
              memory_lrs := Reg.Set.add d !memory_lrs;
              let t = fresh_temp d Tag.Bottom in
              ( { i with Instr.dst = Some t },
                [ Instr.spill t (slot_of d) ] )
          | _ -> (i, [])
        in
        List.rev !pre @ [ i ] @ post
      end
    in
    Iloc.Cfg.iter_blocks
      (fun b ->
        let body = List.concat_map rewrite b.Iloc.Block.body in
        (* The terminator only uses registers; reloads go before it. *)
        match rewrite b.Iloc.Block.term with
        | [] -> b.Iloc.Block.body <- body (* unreachable: terminators survive *)
        | parts ->
            let rec split_last = function
              | [ t ] -> ([], t)
              | x :: rest ->
                  let init, t = split_last rest in
                  (x :: init, t)
              | [] -> assert false
            in
            let pre, term = split_last parts in
            b.Iloc.Block.body <- body @ pre;
            b.Iloc.Block.term <- term)
      cfg;
    {
      remat_lrs = Reg.Set.cardinal !remat_lrs;
      memory_lrs = Reg.Set.cardinal !memory_lrs;
      new_slots = !new_slots;
    }
end

(* Renumber (§4.1) on the structured routine: pruned SSA from
   [Ssa.Construct], tags from [Remat.Remat_analysis.run], then steps 5-6
   materialized into a copy of the SSA routine.  [run_flat]'s contract
   is equality with this: [Flat.to_routine] of its arena structurally
   equals [cfg], with the same supply watermark, tags, split pairs and
   counts. *)
module Renumber = struct
  module Cfg = Iloc.Cfg
  module Block = Iloc.Block
  module Phi = Iloc.Phi
  module Mode = Remat.Mode
  module Remat_analysis = Remat.Remat_analysis
  module Values = Ssa.Values
  module Union_find = Dataflow.Union_find

  type result = {
    cfg : Iloc.Cfg.t;
    tags : Tag.t Iloc.Reg.Tbl.t;
    split_pairs : (Iloc.Reg.t * Iloc.Reg.t) list;
    n_values : int;
    n_live_ranges : int;
  }

  let run mode (cfg : Cfg.t) =
    (* Steps 1-3: pruned SSA (liveness, φ-insertion, renaming). *)
    let ssa = Ssa.Construct.run cfg in
    let vals = Values.analyze ssa in
    let n = Values.count vals in
    (* Step 4: tag propagation.  No_remat forces everything heavyweight. *)
    let tags =
      match mode with
      | Mode.No_remat | Mode.Ssa_no_remat -> Array.make n Tag.Bottom
      | Mode.Chaitin_remat | Mode.Briggs_remat | Mode.Briggs_remat_phi_splits
      | Mode.Briggs_split_all_loops | Mode.Briggs_split_outer_loops
      | Mode.Briggs_split_unreferenced | Mode.Ssa_remat ->
          Remat_analysis.run ssa vals
    in
    let uf = Union_find.create n in
    let both_inst_equal a b =
      match (tags.(a), tags.(b)) with
      | Tag.Inst i, Tag.Inst j -> Instr.remat_equal i j
      | _ -> false
    in
    (* Step 5: union copies joining values with identical inst tags.  The
       copies themselves become self-copies after renaming and are dropped
       during materialization. *)
    (match mode with
    | Mode.Briggs_remat | Mode.Briggs_remat_phi_splits
    | Mode.Briggs_split_all_loops | Mode.Briggs_split_outer_loops
    | Mode.Briggs_split_unreferenced | Mode.Ssa_remat ->
        Cfg.iter_instrs
          (fun _ i ->
            match (i.Instr.op, i.Instr.dst) with
            | Instr.Copy, Some d ->
                let di = Values.index vals d
                and si = Values.index vals i.Instr.srcs.(0) in
                if both_inst_equal di si then ignore (Union_find.union uf di si)
            | _ -> ())
          ssa
    | Mode.No_remat | Mode.Chaitin_remat | Mode.Ssa_no_remat -> ());
    (* Step 6: walk the φ-nodes; union compatible operands, record splits
       for the rest.  Split destinations/sources are resolved to
       representatives only after all unions are known. *)
    let pending_splits = ref [] (* (pred, result value, arg value) *) in
    Cfg.iter_blocks
      (fun b ->
        List.iter
          (fun (p : Phi.t) ->
            let vr = Values.index vals p.dst in
            List.iter
              (fun (pred, arg) ->
                let va = Values.index vals arg in
                let merge =
                  match mode with
                  | Mode.No_remat | Mode.Chaitin_remat | Mode.Ssa_no_remat ->
                      true
                  | Mode.Briggs_remat | Mode.Briggs_split_all_loops
                  | Mode.Briggs_split_outer_loops
                  | Mode.Briggs_split_unreferenced | Mode.Ssa_remat ->
                      (* Identical tags (including both-Bottom) merge; the
                         Minimal column of Figure 3. *)
                      Tag.equal tags.(vr) tags.(va)
                  | Mode.Briggs_remat_phi_splits -> both_inst_equal vr va
                in
                if merge then ignore (Union_find.union uf vr va)
                else pending_splits := (pred, vr, va) :: !pending_splits)
              p.args)
          b.phis)
      ssa;
    (* Live-range name for a value: its class representative's register. *)
    let rep v = Values.reg vals (Union_find.find uf v) in
    let rename r = rep (Values.index vals r) in
    let n_live_ranges = Union_find.n_classes uf in
    (* Tag per live range: the meet over the class (all members agree under
       Briggs modes; under Chaitin mode this meet *is* the limited
       criterion — inst only when every contributing value matches). *)
    let tags_out : Tag.t Reg.Tbl.t = Reg.Tbl.create 64 in
    for v = 0 to n - 1 do
      let r = rep v in
      let old = try Reg.Tbl.find tags_out r with Not_found -> Tag.Top in
      Reg.Tbl.replace tags_out r (Tag.meet old tags.(v))
    done;
    (* Materialize: rename operands, drop φ-nodes and self-copies, insert
       sequentialized split copies at the end of predecessor blocks. *)
    let out = Cfg.copy ssa in
    let split_pairs = ref [] in
    Cfg.iter_blocks
      (fun b ->
        b.phis <- [];
        b.body <-
          List.filter_map
            (fun i ->
              let i = Instr.map_regs rename i in
              match (i.Instr.op, i.Instr.dst) with
              | Instr.Copy, Some d when Reg.equal d i.Instr.srcs.(0) -> None
              | _ -> Some i)
            b.body;
        b.term <- Instr.map_regs rename b.term)
      out;
    let by_pred = Hashtbl.create 8 in
    List.iter
      (fun (pred, vr, va) ->
        let d = rep vr and s = rep va in
        if not (Reg.equal d s) then begin
          let old = Option.value (Hashtbl.find_opt by_pred pred) ~default:[] in
          Hashtbl.replace by_pred pred ((d, s) :: old)
        end)
      (List.rev !pending_splits);
    (* Ascending predecessor order, not [Hashtbl.iter]'s: the scratch
       registers [sequentialize] may mint are drawn from the shared supply,
       so the pred processing order decides their numbering — and with it
       byte-identity against the flat-native path. *)
    let pred_ids =
      List.sort Int.compare (Hashtbl.fold (fun p _ acc -> p :: acc) by_pred [])
    in
    List.iter
      (fun pred ->
        let moves = Hashtbl.find by_pred pred in
        (* The same (dst, src) move can be requested by several φ-nodes
           whose results were unioned; duplicates are harmless, distinct
           sources for one destination would be a broken union and
           Parallel_copy rejects them. *)
        let moves =
          List.sort_uniq
            (fun (d1, s1) (d2, s2) ->
              match Reg.compare d1 d2 with 0 -> Reg.compare s1 s2 | c -> c)
            moves
        in
        let temp cls =
          let t = Cfg.fresh_reg out cls in
          t
        in
        let seq = Ssa.Parallel_copy.sequentialize moves ~temp in
        (* Scratch registers copy an existing live range; they inherit its
           tag so spilling them stays exact. *)
        List.iter
          (fun (d, s) ->
            if not (Reg.Tbl.mem tags_out d) then
              Reg.Tbl.replace tags_out d
                (Option.value (Reg.Tbl.find_opt tags_out s) ~default:Tag.Bottom))
          seq;
        List.iter (fun pair -> split_pairs := pair :: !split_pairs) seq;
        Block.append_before_term (Cfg.block out pred)
          (List.map (fun (d, s) -> Instr.copy d s) seq))
      pred_ids;
    {
      cfg = out;
      tags = tags_out;
      split_pairs = List.rev !split_pairs;
      n_values = n;
      n_live_ranges;
    }
end

(* The library's graph, plus the structured build the arena build is
   argued against (see the ordering argument in interference.ml). *)
module Interference = struct
  include Remat.Interference
  module Bitset = Dataflow.Bitset
  module Reg_index = Dataflow.Reg_index

  (* Each edge is pushed at the first emission of its pair, deduplicated
     by {!add_edge}'s adjacency scan rather than by the arena build's
     scatter, so the two builds agree by different means. *)
  let build ?k (cfg : Iloc.Cfg.t) (live : Dataflow.Liveness.t) =
    let regs = live.Dataflow.Liveness.regs in
    let n = Reg_index.count regs in
    let t = empty ?k regs in
    (* Edges only connect registers of the same class, so instead of a
       class lookup per live bit the defining register's candidates are
       narrowed word-parallel: live_now ∩ class-mask, then the iteration
       touches exactly the indices that can get an edge. *)
    let int_mask = Bitset.create n and float_mask = Bitset.create n in
    for i = 0 to n - 1 do
      match Reg.cls (Reg_index.reg regs i) with
      | Reg.Int -> Bitset.unsafe_add int_mask i
      | Reg.Float -> Bitset.unsafe_add float_mask i
    done;
    let candidates = Bitset.create n in
    Iloc.Cfg.iter_blocks
      (fun b ->
        let live_now = Bitset.copy live.Dataflow.Liveness.live_out.(b.id) in
        let step (i : Instr.t) =
          (match i.Instr.dst with
          | Some d ->
              let di = Reg_index.index regs d in
              let skip =
                (* Copies: the new value and the copied value may share a
                   register, so no edge between them (enables coalescing).
                   -1 never equals a live index. *)
                if Instr.is_copy i then Reg_index.index regs i.Instr.srcs.(0)
                else -1
              in
              Bitset.assign ~dst:candidates live_now;
              ignore
                (Bitset.inter_into ~dst:candidates
                   (match Reg.cls d with
                   | Reg.Int -> int_mask
                   | Reg.Float -> float_mask));
              Bitset.iter
                (fun l -> if l <> di && l <> skip then add_edge t di l)
                candidates;
              Bitset.unsafe_remove live_now di
          | None -> ());
          List.iter
            (fun u -> Bitset.unsafe_add live_now (Reg_index.index regs u))
            (Instr.uses i)
        in
        step b.term;
        List.iter step (List.rev b.body))
      cfg;
    t
end

module Simplify = struct
  (* O(n) whole-graph rescan per spill-candidate pick. *)
  let run (g : Interference.t) ~k ~costs =
    let n = Interference.n_nodes g in
    let deg = Array.init n (Interference.degree g) in
    let removed = Array.init n (fun i -> not (Interference.alive g i)) in
    let queued = Array.make n false in
    let k_of i = k (Reg.cls (Interference.reg g i)) in
    let trivial = Queue.create () in
    for i = 0 to n - 1 do
      if (not removed.(i)) && deg.(i) < k_of i then begin
        Queue.add i trivial;
        queued.(i) <- true
      end
    done;
    let stack = ref [] in
    let remaining = ref (Interference.n_alive g) in
    let remove i =
      removed.(i) <- true;
      decr remaining;
      stack := i :: !stack;
      Interference.iter_neighbors
        (fun nb ->
          if not removed.(nb) then begin
            deg.(nb) <- deg.(nb) - 1;
            if deg.(nb) < k_of nb && not queued.(nb) then begin
              Queue.add nb trivial;
              queued.(nb) <- true
            end
          end)
        g i
    in
    while !remaining > 0 do
      if not (Queue.is_empty trivial) then begin
        let i = Queue.pop trivial in
        if not removed.(i) then remove i
      end
      else begin
        let best = ref (-1) in
        let best_metric = ref infinity in
        for i = 0 to n - 1 do
          if not removed.(i) then begin
            let metric =
              if deg.(i) = 0 then 0. else costs.(i) /. float_of_int deg.(i)
            in
            if
              metric < !best_metric
              || !best = -1
              || (metric = !best_metric && deg.(i) > deg.(!best))
            then begin
              best := i;
              best_metric := metric
            end
          end
        done;
        remove !best
      end
    done;
    !stack
end

module Select = struct
  type t = { colors : int option array; spilled : int list }

  (* Forbidden-color lists rebuilt per node, List.mem lookahead. *)
  let run (g : Interference.t) ~k ~order ~partners =
    let n = Interference.n_nodes g in
    let colors = Array.make n None in
    let forbidden i =
      Interference.fold_neighbors
        (fun nb acc ->
          match colors.(nb) with Some c -> c :: acc | None -> acc)
        g i []
    in
    let pick i =
      let ki = k (Reg.cls (Interference.reg g i)) in
      let bad = forbidden i in
      let avail = Array.make ki true in
      List.iter (fun c -> if c < ki then avail.(c) <- false) bad;
      let available c = c >= 0 && c < ki && avail.(c) in
      let partner_color =
        List.find_opt
          (fun p ->
            match colors.(p) with Some c -> available c | None -> false)
          partners.(i)
        |> Option.map (fun p -> Option.get colors.(p))
      in
      match partner_color with
      | Some c -> Some c
      | None -> (
          let lookahead =
            List.find_map
              (fun p ->
                if colors.(p) <> None then None
                else begin
                  let pbad = forbidden p in
                  let rec first c =
                    if c >= ki then None
                    else if avail.(c) && not (List.mem c pbad) then Some c
                    else first (c + 1)
                  in
                  first 0
                end)
              partners.(i)
          in
          match lookahead with
          | Some c -> Some c
          | None ->
              let rec first c =
                if c >= ki then None
                else if avail.(c) then Some c
                else first (c + 1)
              in
              first 0)
    in
    List.iter (fun i -> colors.(i) <- pick i) order;
    let spilled =
      List.sort Int.compare (List.filter (fun i -> colors.(i) = None) order)
    in
    { colors; spilled }
end

module Coalesce = struct
  type phase = Unrestricted | Conservative
  type outcome = { changed : bool; coalesced : int }

  let norm_pair a b = if Reg.compare a b <= 0 then (a, b) else (b, a)

  let merge_into (ctx : Context.t) g ~keep ~drop =
    let keep_reg = Interference.reg g keep
    and drop_reg = Interference.reg g drop in
    Interference.merge g ~keep ~drop;
    Context.count ctx Stats.Node_merges 1;
    let tags = ctx.Context.tags and infinite = ctx.Context.infinite in
    let drop_tag =
      Option.value (Reg.Tbl.find_opt tags drop_reg) ~default:Tag.Bottom
    in
    let keep_tag =
      Option.value (Reg.Tbl.find_opt tags keep_reg) ~default:Tag.Bottom
    in
    Reg.Tbl.replace tags keep_reg (Tag.meet drop_tag keep_tag);
    Reg.Tbl.remove tags drop_reg;
    if not (Reg.Tbl.mem infinite drop_reg) then
      Reg.Tbl.remove infinite keep_reg;
    Reg.Tbl.remove infinite drop_reg

  (* Whole-CFG rescan per sweep; allocating Briggs test (neighbor-list
     append, sort_uniq, filter).  Renames [cfg], the structured form of
     the context's arena that the caller keeps, in place after every
     sweep that merged; the production coalescer renames the arena once
     per round instead, and callers compare the two texts. *)
  let pass phase (ctx : Context.t) g (cfg : Iloc.Cfg.t) =
    Context.count ctx Stats.Coalesce_sweeps 1;
    let split_set = Hashtbl.create 16 in
    List.iter
      (fun (a, b) -> Hashtbl.replace split_set (norm_pair a b) ())
      ctx.Context.split_pairs;
    let is_split d s = Hashtbl.mem split_set (norm_pair d s) in
    let briggs_ok di si =
      let cls = Reg.cls (Interference.reg g di) in
      let nbrs =
        List.sort_uniq Int.compare
          (Interference.neighbors g di @ Interference.neighbors g si)
      in
      let significant =
        List.length
          (List.filter
             (fun nb ->
               nb <> di && nb <> si
               && Interference.degree g nb
                  >= ctx.Context.k (Reg.cls (Interference.reg g nb)))
             nbrs)
      in
      significant < ctx.Context.k cls
    in
    let coalesced = ref 0 in
    Iloc.Cfg.iter_blocks
      (fun b ->
        List.iter
          (fun (i : Instr.t) ->
            if Instr.is_copy i then begin
              let d = Option.get i.Instr.dst and s = i.Instr.srcs.(0) in
              match
                (Interference.index_opt g d, Interference.index_opt g s)
              with
              | Some d0, Some s0 ->
                  let di = Interference.find g d0
                  and si = Interference.find g s0 in
                  if di <> si && not (Interference.interfere g di si) then begin
                    let ok =
                      match phase with
                      | Unrestricted -> not (is_split d s)
                      | Conservative -> is_split d s && briggs_ok di si
                    in
                    if ok then begin
                      merge_into ctx g ~keep:di ~drop:si;
                      incr coalesced
                    end
                  end
              | _ -> ()
            end)
          b.body)
      cfg;
    if !coalesced = 0 then { changed = false; coalesced = 0 }
    else begin
      let rename r =
        match Interference.index_opt g r with
        | None -> r
        | Some i -> Interference.reg g (Interference.find g i)
      in
      Iloc.Cfg.iter_blocks
        (fun b ->
          b.Iloc.Block.body <-
            List.filter_map
              (fun i ->
                let i = Instr.map_regs rename i in
                match (i.Instr.op, i.Instr.dst) with
                | Instr.Copy, Some d when Reg.equal d i.Instr.srcs.(0) -> None
                | _ -> Some i)
              b.Iloc.Block.body;
          b.Iloc.Block.term <- Instr.map_regs rename b.Iloc.Block.term)
        cfg;
      ctx.Context.split_pairs <-
        List.filter_map
          (fun (a, b) ->
            let a = rename a and b = rename b in
            if Reg.equal a b then None else Some (a, b))
          ctx.Context.split_pairs;
      ctx.Context.coalesced <- ctx.Context.coalesced + !coalesced;
      Context.count ctx Stats.Coalesced_copies !coalesced;
      { changed = true; coalesced = !coalesced }
    end

  (* The allocator's coalescing regime on the round's build:
     unrestricted to a fixpoint, then (for splitting modes) conservative
     to a fixpoint. *)
  let fixpoint (ctx : Context.t) cfg =
    let g = Remat.Allocator.build ctx in
    let phase = ref Unrestricted in
    let rec loop () =
      let outcome = pass !phase ctx g cfg in
      if outcome.changed then loop ()
      else
        match !phase with
        | Unrestricted when Remat.Mode.splits ctx.Context.mode ->
            phase := Conservative;
            loop ()
        | Unrestricted | Conservative -> ()
    in
    loop ()
end

module Spill_cost = struct
  (* The structured-routine walk: [Instr.defs @ Instr.uses] per
     instruction, a [List.sort_uniq] of the uses and a [Reg.Tbl] lookup
     per operand.  The production phase reads the arena instead and must
     produce the same floats bit for bit. *)
  let compute (cfg : Iloc.Cfg.t) (loops : Dataflow.Loops.t) (g : Interference.t)
      ~(live_in_iter : int -> (Reg.t -> unit) -> unit) ~tags ~infinite =
    let n = Interference.n_nodes g in
    let costs = Array.make n 0. in
    let tag_of r = Option.value (Reg.Tbl.find_opt tags r) ~default:Tag.Bottom in
    (* Futile-spill guard: find ranges confined to a two-instruction window
       of a single block.  Spilling one would keep a register occupied at
       every occurrence anyway, so it cannot relieve pressure. *)
    let first_pos = Array.make n max_int and last_pos = Array.make n min_int in
    let home_block = Array.make n (-2) in
    let crosses = Array.make n false in
    Iloc.Cfg.iter_blocks
      (fun b ->
        let pos = ref 0 in
        Iloc.Block.iter_instrs
          (fun i ->
            List.iter
              (fun r ->
                let ri = Interference.index g r in
                if home_block.(ri) = -2 then home_block.(ri) <- b.id
                else if home_block.(ri) <> b.id then crosses.(ri) <- true;
                if !pos < first_pos.(ri) then first_pos.(ri) <- !pos;
                if !pos > last_pos.(ri) then last_pos.(ri) <- !pos)
              (Instr.defs i @ Instr.uses i);
            incr pos)
          b)
      cfg;
    for b = 0 to Iloc.Cfg.n_blocks cfg - 1 do
      live_in_iter b (fun r ->
          match Interference.index_opt g r with
          | Some ri -> crosses.(ri) <- true
          | None -> ())
    done;
    let tiny ri =
      (not crosses.(ri))
      && home_block.(ri) >= 0
      && last_pos.(ri) - first_pos.(ri) <= 2
    in
    Iloc.Cfg.iter_blocks
      (fun b ->
        let w = Dataflow.Loops.weight loops b.id in
        Iloc.Block.iter_instrs
          (fun i ->
            (* One reload (or rematerialization) serves every occurrence of
               a register within a single instruction. *)
            let uses = List.sort_uniq Reg.compare (Instr.uses i) in
            List.iter
              (fun u ->
                let ui = Interference.index g u in
                let per_use =
                  if Tag.is_inst (tag_of u) then float_of_int Remat.Spill_cost.remat_cycles
                  else float_of_int Remat.Spill_cost.load_store_cycles
                in
                costs.(ui) <- costs.(ui) +. (per_use *. w))
              uses;
            List.iter
              (fun d ->
                let di = Interference.index g d in
                (* Rematerializable values are never stored (§3.2). *)
                if not (Tag.is_inst (tag_of d)) then
                  costs.(di) <-
                    costs.(di) +. (float_of_int Remat.Spill_cost.load_store_cycles *. w))
              (Instr.defs i))
          b)
      cfg;
    for i = 0 to n - 1 do
      if Reg.Tbl.mem infinite (Interference.reg g i) || tiny i then
        costs.(i) <- infinity
    done;
    costs
end

(* The SSA family's spill selection as it stood on [Reg.Set] live sets
   and a [Reg.Tbl] cost table: one MaxLive sweep over every program
   point per round.  [Remat.Ssa_alloc.cost_table]/[select], which run on
   the round's liveness bitsets and arrays indexed by value, must agree
   with it: the same costs, the same chosen set, the same stuck block. *)
module Ssa_select = struct
  module Cfg = Iloc.Cfg
  module Block = Iloc.Block
  module Phi = Iloc.Phi

  (* The same metric as {!Spill_cost}, without the interference-graph
     plumbing: every reload costs 2 (address arithmetic folded), every
     rematerialization 1, every store 2, weighted by 10^loop-depth of the
     site.  φ traffic is charged at the predecessor's weight — that is
     where the memory-φ store or the argument reload lands. *)
  let cost_table (cfg : Cfg.t) loops tag_of =
    let costs = Reg.Tbl.create 64 in
    let add r x =
      Reg.Tbl.replace costs r
        (x +. Option.value (Reg.Tbl.find_opt costs r) ~default:0.)
    in
    let w b = Dataflow.Loops.weight loops b in
    let remat r = Tag.is_inst (tag_of r) in
    let use_cost r wb = if remat r then wb else 2. *. wb in
    Cfg.iter_blocks
      (fun b ->
        let wb = w b.Block.id in
        List.iter
          (fun (p : Phi.t) ->
            if not (remat p.Phi.dst) then
              List.iter (fun (pred, _) -> add p.Phi.dst (2. *. w pred)) p.Phi.args;
            List.iter
              (fun (pred, arg) -> add arg (use_cost arg (w pred)))
              p.Phi.args)
          b.Block.phis;
        Block.iter_instrs
          (fun i ->
            (match i.Instr.dst with
            | Some d when not (remat d) -> add d (2. *. wb)
            | _ -> ());
            List.iter (fun u -> add u (use_cost u wb)) (Instr.uses i))
          b)
      cfg;
    fun r -> Option.value (Reg.Tbl.find_opt costs r) ~default:0.

  (* ------------------------------------------------------------------ *)
  (* Spill selection                                                     *)

  (* One sweep over every program point, accumulating the set of values to
     spill this round.  A point is described by [counted] — the registers
     occupying a color there, [sticky] when spilling cannot relieve the
     point (instruction operands keep a temporary alive at their site) —
     and [candidates], the registers whose spilling frees one color here.
     At a block's end point the candidates also include successor
     φ-destinations: spilling one turns its φ into a memory φ, whose edge
     store reaches the slot through a transient pair instead of holding
     the argument's register across the edge. *)
  let select (cfg : Cfg.t) (live : Liveness.t) ~k ~cost ~spillable =
    let chosen = ref Reg.Set.empty in
    let stuck = ref None in
    let classes = [ Reg.Int; Reg.Float ] in
    let reduce ~where ~counted ~candidates =
      List.iter
        (fun cls ->
          let n =
            List.fold_left
              (fun n (r, sticky) ->
                if
                  Reg.cls_equal (Reg.cls r) cls
                  && (sticky || not (Reg.Set.mem r !chosen))
                then n + 1
                else n)
              0 counted
          in
          let kc = k cls in
          if n > kc then begin
            let cands =
              List.sort_uniq Reg.compare candidates
              |> List.filter (fun r ->
                     Reg.cls_equal (Reg.cls r) cls
                     && spillable r
                     && not (Reg.Set.mem r !chosen))
              |> List.map (fun r -> (cost r, r))
              |> List.sort (fun (c1, r1) (c2, r2) ->
                     match Float.compare c1 c2 with
                     | 0 -> Reg.compare r1 r2
                     | c -> c)
            in
            let need = ref (n - kc) in
            List.iter
              (fun (_, r) ->
                if !need > 0 then begin
                  chosen := Reg.Set.add r !chosen;
                  decr need
                end)
              cands;
            if !need > 0 && !stuck = None then stuck := Some where
          end)
        classes
    in
    Cfg.iter_blocks
      (fun b ->
        let bid = b.Block.id in
        let where = Printf.sprintf "block %s" b.Block.label in
        (* Entry point: live-in values and every φ destination coexist
           just after the entry parallel copy. *)
        let live_in_regs = Liveness.live_in live bid in
        let dests = List.map (fun (p : Phi.t) -> p.Phi.dst) b.Block.phis in
        reduce ~where
          ~counted:(List.map (fun r -> (r, false)) (live_in_regs @ dests))
          ~candidates:(live_in_regs @ dests);
        (* Instruction points, from per-instruction live-after sets. *)
        let live_out_set =
          List.fold_left
            (fun s r -> Reg.Set.add r s)
            Reg.Set.empty (Liveness.live_out live bid)
        in
        let instrs = Array.of_list (b.Block.body @ [ b.Block.term ]) in
        let n = Array.length instrs in
        let after = Array.make n Reg.Set.empty in
        let cur = ref live_out_set in
        for idx = n - 1 downto 0 do
          after.(idx) <- !cur;
          let i = instrs.(idx) in
          let s =
            List.fold_left (fun s d -> Reg.Set.remove d s) !cur (Instr.defs i)
          in
          cur := List.fold_left (fun s u -> Reg.Set.add u s) s (Instr.uses i)
        done;
        for idx = 0 to n - 1 do
          let i = instrs.(idx) in
          let defs = Instr.defs i in
          let uses = List.sort_uniq Reg.compare (Instr.uses i) in
          let after_minus_defs =
            List.fold_left (fun s d -> Reg.Set.remove d s) after.(idx) defs
          in
          let through = Reg.Set.elements after_minus_defs in
          let through_nonuse =
            List.filter (fun r -> not (List.exists (Reg.equal r) uses)) through
          in
          reduce ~where
            ~counted:
              (List.map (fun u -> (u, true)) uses
              @ List.map (fun r -> (r, false)) through_nonuse)
            ~candidates:through_nonuse;
          if defs <> [] then
            reduce ~where
              ~counted:
                (List.map (fun d -> (d, true)) defs
                @ List.map (fun r -> (r, false)) through)
              ~candidates:through
        done;
        (* End point: successor φ-arguments are live here; relieving one
           means spilling the φ's destination, not the argument. *)
        let term_uses = List.sort_uniq Reg.compare (Instr.uses b.Block.term) in
        let succ_phis =
          match Cfg.succs cfg bid with
          | [ s ] -> (Cfg.block cfg s).Block.phis
          | _ -> []
        in
        let arg_of_kept v =
          List.exists
            (fun (p : Phi.t) ->
              (not (Reg.Set.mem p.Phi.dst !chosen))
              && Reg.equal (Phi.arg_for p ~pred:bid) v)
            succ_phis
        in
        let out = Liveness.live_out live bid in
        let counted =
          List.map
            (fun v ->
              (v, List.exists (Reg.equal v) term_uses || arg_of_kept v))
            out
        in
        let value_cands =
          List.filter
            (fun v ->
              (not (List.exists (Reg.equal v) term_uses)) && not (arg_of_kept v))
            out
        in
        let dest_cands =
          List.filter_map
            (fun (p : Phi.t) ->
              if Reg.Set.mem p.Phi.dst !chosen then None
              else Some p.Phi.dst)
            succ_phis
        in
        reduce ~where ~counted ~candidates:(value_cands @ dest_cands))
      cfg;
    (!chosen, !stuck)
end

(* The ILOC text layer as it stood before the one-pass lexer, the
   Buffer printer and the must-defined check over U, kept verbatim.
   [Iloc.Parser.lex] must return the lines [Lexer.lex] returns;
   [Iloc.Printer.routine_to_string] must write the text
   [Printer.routine_to_string] writes, instruction text included; and
   [Iloc.Validate.routine] must report the errors [Validate.check_defined]
   reports, in the same order. *)
module Lexer = struct
  let strip_comment s =
    let cut c s =
      match String.index_opt s c with
      | Some i -> String.sub s 0 i
      | None -> s
    in
    s |> cut ';' |> cut '#'

  let tokens_of_line s =
    strip_comment s |> String.split_on_char ' '
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")

  (* Numbered, tokenized, non-blank lines. *)
  let lex src =
    String.split_on_char '\n' src
    |> List.mapi (fun i l -> (i + 1, tokens_of_line l))
    |> List.filter (fun (_, ts) -> ts <> [])
end

(* [Instr.pp] on [Format] and the routine printer that called it (here
   [pp]; it called [Instr.pp]). *)
module Printer = struct
  module Cfg = Iloc.Cfg
  module Symbol = Iloc.Symbol
  open Instr

  let rel_to_string = function
    | Eq -> "eq"
    | Ne -> "ne"
    | Lt -> "lt"
    | Le -> "le"
    | Gt -> "gt"
    | Ge -> "ge"

  let pp ppf t =
    let pr fmt = Format.fprintf ppf fmt in
    let d () =
      match t.dst with None -> assert false | Some d -> Reg.to_string d
    in
    let s i = Reg.to_string t.srcs.(i) in
    match t.op with
    | Ldi n -> pr "%s <- ldi %d" (d ()) n
    | Lfi x -> pr "%s <- lfi %h" (d ()) x
    | Laddr (l, 0) -> pr "%s <- laddr @%s" (d ()) l
    | Laddr (l, off) -> pr "%s <- laddr @%s %d" (d ()) l off
    | Lfp off -> pr "%s <- lfp %d" (d ()) off
    | Ldro (l, off) -> pr "%s <- ldro @%s %d" (d ()) l off
    | Add -> pr "%s <- add %s %s" (d ()) (s 0) (s 1)
    | Sub -> pr "%s <- sub %s %s" (d ()) (s 0) (s 1)
    | Mul -> pr "%s <- mul %s %s" (d ()) (s 0) (s 1)
    | Div -> pr "%s <- div %s %s" (d ()) (s 0) (s 1)
    | Rem -> pr "%s <- rem %s %s" (d ()) (s 0) (s 1)
    | Cmp r -> pr "%s <- cmp_%s %s %s" (d ()) (rel_to_string r) (s 0) (s 1)
    | Addi n -> pr "%s <- addi %s %d" (d ()) (s 0) n
    | Subi n -> pr "%s <- subi %s %d" (d ()) (s 0) n
    | Muli n -> pr "%s <- muli %s %d" (d ()) (s 0) n
    | Fadd -> pr "%s <- fadd %s %s" (d ()) (s 0) (s 1)
    | Fsub -> pr "%s <- fsub %s %s" (d ()) (s 0) (s 1)
    | Fmul -> pr "%s <- fmul %s %s" (d ()) (s 0) (s 1)
    | Fdiv -> pr "%s <- fdiv %s %s" (d ()) (s 0) (s 1)
    | Fcmp r -> pr "%s <- fcmp_%s %s %s" (d ()) (rel_to_string r) (s 0) (s 1)
    | Fneg -> pr "%s <- fneg %s" (d ()) (s 0)
    | Fabs -> pr "%s <- fabs %s" (d ()) (s 0)
    | Itof -> pr "%s <- itof %s" (d ()) (s 0)
    | Ftoi -> pr "%s <- ftoi %s" (d ()) (s 0)
    | Copy -> pr "%s <- copy %s" (d ()) (s 0)
    | Load -> pr "%s <- load %s" (d ()) (s 0)
    | Loadx -> pr "%s <- loadx %s %s" (d ()) (s 0) (s 1)
    | Loadi off -> pr "%s <- loadi %s %d" (d ()) (s 0) off
    | Store -> pr "store %s -> %s" (s 0) (s 1)
    | Storex -> pr "storex %s -> %s %s" (s 0) (s 1) (s 2)
    | Storei off -> pr "storei %s -> %s %d" (s 0) (s 1) off
    | Spill slot -> pr "spill %s -> [%d]" (s 0) slot
    | Reload slot -> pr "%s <- reload [%d]" (d ()) slot
    | Jmp l -> pr "jmp %s" l
    | Cbr (l1, l2) -> pr "cbr %s %s %s" (s 0) l1 l2
    | Ret ->
        if Array.length t.srcs = 0 then pr "ret" else pr "ret %s" (s 0)
    | Print -> pr "print %s" (s 0)
    | Nop -> pr "nop"

  let pp_symbol ppf (s : Symbol.t) =
    let const = if s.readonly then "const " else "" in
    match s.init with
    | Symbol.Uninit -> Format.fprintf ppf "data %s%s[%d]" const s.name s.size
    | Symbol.Int_elts l ->
        Format.fprintf ppf "data %s%s[%d] = {%s }" const s.name s.size
          (String.concat ""
             (List.map (fun n -> Printf.sprintf " %d" n) l))
    | Symbol.Float_elts l ->
        Format.fprintf ppf "data %s%s[%d] = f{%s }" const s.name s.size
          (String.concat ""
             (List.map (fun x -> Printf.sprintf " %h" x) l))

  let pp_routine ppf (cfg : Cfg.t) =
    Format.fprintf ppf "routine %s@." cfg.name;
    List.iter (fun s -> Format.fprintf ppf "%a@." pp_symbol s) cfg.symbols;
    Cfg.iter_blocks
      (fun b ->
        Format.fprintf ppf "%s:@." b.label;
        if b.phis <> [] then
          invalid_arg "Printer.pp_routine: SSA form has no concrete syntax";
        List.iter (fun i -> Format.fprintf ppf "  %a@." pp i) b.body;
        Format.fprintf ppf "  %a@." pp b.term)
      cfg

  let routine_to_string cfg = Format.asprintf "%a" pp_routine cfg
end

module Validate = struct
  module Cfg = Iloc.Cfg
  module Block = Iloc.Block
  module Phi = Iloc.Phi

  type error = Iloc.Validate.error = {
    where : string;
    block : string option;
    index : int option;
    what : string;
  }

  (* Error constructors: block-level, instruction-level. *)
  let block_err (cfg : Cfg.t) label what =
    {
      where = Printf.sprintf "%s/%s" cfg.name label;
      block = Some label;
      index = None;
      what;
    }

  let instr_err (cfg : Cfg.t) label idx what =
    {
      where = Printf.sprintf "%s/%s" cfg.name label;
      block = Some label;
      index = Some idx;
      what;
    }

  (* Forward must-be-defined analysis.  in(entry) = {}, in(b) = the
     intersection over predecessors p of out(p); out = in plus local defs.
     φ-nodes define their destination at block entry and their arguments are
     checked against the corresponding predecessor's out set. *)
  let check_defined (cfg : Cfg.t) errs =
    let n = Cfg.n_blocks cfg in
    (* Unreachable blocks keep out = ⊤ so they never constrain a reachable
       join, and their own uses are not checked (nothing executes them). *)
    let reachable = Array.make n false in
    let rec visit b =
      if not reachable.(b) then begin
        reachable.(b) <- true;
        List.iter visit (Cfg.succs cfg b)
      end
    in
    visit cfg.entry;
    let regs = Cfg.all_regs cfg in
    let full = regs in
    let out = Array.make n full in
    let block_defs (b : Block.t) from =
      let s = ref from in
      List.iter (fun (p : Phi.t) -> s := Reg.Set.add p.dst !s) b.phis;
      Block.iter_instrs
        (fun i -> List.iter (fun d -> s := Reg.Set.add d !s) (Instr.defs i))
        b;
      !s
    in
    let in_of b =
      if b = cfg.entry then Reg.Set.empty
      else
        match Cfg.preds cfg b with
        | [] -> Reg.Set.empty (* unreachable block: report nothing extra *)
        | p :: ps ->
            List.fold_left (fun acc q -> Reg.Set.inter acc out.(q)) out.(p) ps
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for b = 0 to n - 1 do
        if reachable.(b) then begin
          let o = block_defs (Cfg.block cfg b) (in_of b) in
          if not (Reg.Set.equal o out.(b)) then (
            out.(b) <- o;
            changed := true)
        end
      done
    done;
    Cfg.iter_blocks
      (fun b ->
        if reachable.(b.id) then begin
          let live = ref (in_of b.id) in
          List.iter
            (fun (p : Phi.t) ->
              List.iter
                (fun (pred, r) ->
                  if not (Reg.Set.mem r out.(pred)) then
                    errs :=
                      block_err cfg b.label
                        (Printf.sprintf
                           "phi argument %s not defined on edge from B%d"
                           (Reg.to_string r) pred)
                      :: !errs)
                p.args)
            b.phis;
          List.iter (fun (p : Phi.t) -> live := Reg.Set.add p.dst !live) b.phis;
          List.iteri
            (fun idx i ->
              List.iter
                (fun u ->
                  if not (Reg.Set.mem u !live) then
                    errs :=
                      instr_err cfg b.label idx
                        (Printf.sprintf "use of possibly-undefined %s in '%s'"
                           (Reg.to_string u) (Instr.to_string i))
                      :: !errs)
                (Instr.uses i);
              List.iter (fun d -> live := Reg.Set.add d !live) (Instr.defs i))
            (Block.instrs b)
        end)
      cfg

  (* [Iloc.Validate.routine] on a routine with no structural error. *)
  let routine cfg =
    let errs = ref [] in
    check_defined cfg errs;
    match List.rev !errs with [] -> Ok () | es -> Error es
end
