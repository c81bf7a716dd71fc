module Cfg = Iloc.Cfg
module Block = Iloc.Block
module Instr = Iloc.Instr
module Phi = Iloc.Phi
module Reg = Iloc.Reg
module Liveness = Dataflow.Liveness
module Reg_index = Dataflow.Reg_index
module Bitset = Dataflow.Bitset

type result = {
  cfg : Iloc.Cfg.t;
  rounds : int;
  spilled_memory : int;
  spilled_remat : int;
  spill_slots : int;
  n_values : int;
  coalesced : int;
  max_live_int : int;
  max_live_float : int;
  max_colors_int : int;
  max_colors_float : int;
}

(* ------------------------------------------------------------------ *)
(* Spill costs                                                         *)

(* The same metric as {!Spill_cost}, without the interference-graph
   plumbing: every reload costs 2 (address arithmetic folded), every
   rematerialization 1, every store 2, weighted by 10^loop-depth of the
   site.  φ traffic is charged at the predecessor's weight — that is
   where the memory-φ store or the argument reload lands.  Indexed by
   [regs], the round's liveness numbering; each value's charges are
   summed in program order. *)
let cost_table (cfg : Cfg.t) loops tag_of regs =
  let nr = Reg_index.count regs in
  let map = Reg_index.packed_map regs in
  let index r = map.(Reg.hash r) in
  let remat =
    Array.init nr (fun i -> Tag.is_inst (tag_of (Reg_index.reg regs i)))
  in
  let costs = Array.make nr 0. in
  let add i x = costs.(i) <- costs.(i) +. x in
  let w b = Dataflow.Loops.weight loops b in
  let use_cost i wb = if remat.(i) then wb else 2. *. wb in
  Cfg.iter_blocks
    (fun b ->
      let wb = w b.Block.id in
      List.iter
        (fun (p : Phi.t) ->
          let d = index p.Phi.dst in
          if not remat.(d) then
            List.iter (fun (pred, _) -> add d (2. *. w pred)) p.Phi.args;
          List.iter
            (fun (pred, arg) ->
              let a = index arg in
              add a (use_cost a (w pred)))
            p.Phi.args)
        b.Block.phis;
      Block.iter_instrs
        (fun i ->
          (match i.Instr.dst with
          | Some d ->
              let d = index d in
              if not remat.(d) then add d (2. *. wb)
          | None -> ());
          Array.iter
            (fun u ->
              let u = index u in
              add u (use_cost u wb))
            i.Instr.srcs)
        b)
    cfg;
  costs

(* ------------------------------------------------------------------ *)
(* Spill selection                                                     *)

(* One sweep over every program point, accumulating the set of values to
   spill this round.  At each point, per class, the values occupying a
   color are counted; while the count exceeds k, the cheapest
   candidates — values whose spilling frees a color there — are chosen.
   Instruction operands are {e sticky}: they keep a reload temporary
   alive at their site, so they count even when already chosen and are
   never candidates.  At a block's end point the candidates also include
   successor φ-destinations: spilling one turns its φ into a memory φ,
   whose edge store reaches the slot through a transient pair instead
   of holding the argument's register across the edge.

   Everything runs on [live]'s dense index.  Its ascending order is
   [Reg.compare] order ({!Dataflow.Reg_index} enumerates packed ids in
   ascending order), so ranking candidates by (cost, index) is ranking
   them by (cost, register).  A block's live-after rows come from one
   backward walk into a slab sized for the longest block; the forward
   sweep then counts each point's pressure straight from its row, and
   builds and sorts a candidate list only at points over k.  The rows
   are built backward but consumed forward, because a choice at one
   point lowers the count at the next.  The [Reg.Set] sweep this must
   agree with, choice for choice, is kept in test/reference.ml. *)
let select (cfg : Cfg.t) (live : Liveness.t) ~k ~cost ~spillable =
  let regs = live.Liveness.regs in
  let nr = Reg_index.count regs in
  let map = Reg_index.packed_map regs in
  let index r = map.(Reg.hash r) in
  let is_float = Array.init nr (fun i -> Reg.is_float (Reg_index.reg regs i)) in
  let k_int = k Reg.Int and k_float = k Reg.Float in
  let chosen = Bitset.create nr in
  let is_chosen i = Bitset.unsafe_mem chosen i in
  (* Per-point operand marks: [use_mark] for a source operand, a term
     use or a kept φ-argument, [def_mark] for the destination.  Cleared
     before the next point. *)
  let mark = Bytes.make nr '\000' in
  let use_mark = '\001' and def_mark = '\002' in
  let n_chosen = ref 0 in
  let stuck = ref (-1) in
  (* Spill the [need] cheapest candidates of one class: [each] feeds
     them, possibly repeating one; a point still over k afterwards is
     stuck. *)
  let relieve bid ~float ~need each =
    let cands = ref [] in
    each (fun i ->
        if Bool.equal is_float.(i) float && spillable.(i) && not (is_chosen i)
        then cands := i :: !cands);
    let by_cost a b =
      match Float.compare cost.(a) cost.(b) with 0 -> Int.compare a b | c -> c
    in
    (* Sorted, a repeated candidate is adjacent to itself. *)
    let rec take need prev = function
      | i :: rest when need > 0 ->
          if i = prev then take need prev rest
          else begin
            Bitset.unsafe_add chosen i;
            incr n_chosen;
            take (need - 1) i rest
          end
      | _ -> need
    in
    if take need (-1) (List.sort by_cost !cands) > 0 && !stuck < 0 then
      stuck := bid
  in
  (* [ni]/[nf] values of each class occupy a color at this point; Int is
     relieved first, as the two classes never compete. *)
  let reduce bid ni nf each =
    if ni > k_int then relieve bid ~float:false ~need:(ni - k_int) each;
    if nf > k_float then relieve bid ~float:true ~need:(nf - k_float) each
  in
  let max_len =
    Cfg.fold_blocks
      (fun m b -> max m (List.length b.Block.body + 1))
      0 cfg
  in
  let after = Bitset.slab ~rows:max_len ~capacity:nr () in
  let instrs = Array.make max_len (Cfg.entry_block cfg).Block.term in
  Cfg.iter_blocks
    (fun b ->
      let bid = b.Block.id in
      (* Entry point: live-in values and every φ destination coexist
         just after the entry parallel copy. *)
      let live_in = live.Liveness.live_in.(bid) in
      let ni = ref 0 and nf = ref 0 in
      let count i =
        if not (is_chosen i) then if is_float.(i) then incr nf else incr ni
      in
      Bitset.iter count live_in;
      List.iter (fun (p : Phi.t) -> count (index p.Phi.dst)) b.Block.phis;
      reduce bid !ni !nf (fun f ->
          Bitset.iter f live_in;
          List.iter (fun (p : Phi.t) -> f (index p.Phi.dst)) b.Block.phis);
      (* Live-after rows, one backward walk. *)
      let n = List.length b.Block.body + 1 in
      List.iteri (fun idx i -> instrs.(idx) <- i) b.Block.body;
      instrs.(n - 1) <- b.Block.term;
      Bitset.assign ~dst:after.(n - 1) live.Liveness.live_out.(bid);
      for idx = n - 1 downto 1 do
        let row = after.(idx - 1) and i = instrs.(idx) in
        Bitset.assign ~dst:row after.(idx);
        Option.iter (fun d -> Bitset.unsafe_remove row (index d)) i.Instr.dst;
        Array.iter (fun u -> Bitset.unsafe_add row (index u)) i.Instr.srcs
      done;
      (* Instruction points.  At the use point the distinct sources are
         sticky and the other values live through the instruction are
         candidates; at the definition point the destination is sticky
         and everything live after it, sources included, is a
         candidate. *)
      for idx = 0 to n - 1 do
        let i = instrs.(idx) and row = after.(idx) in
        let ui = ref 0 and uf = ref 0 in
        Array.iter
          (fun u ->
            let u = index u in
            if Bytes.unsafe_get mark u = '\000' then begin
              Bytes.unsafe_set mark u use_mark;
              if is_float.(u) then incr uf else incr ui
            end)
          i.Instr.srcs;
        let d = match i.Instr.dst with Some d -> index d | None -> -1 in
        if d >= 0 then Bytes.unsafe_set mark d def_mark;
        (* [ti]/[tf]: unchosen non-operands live through; [si]/[sf]:
           unchosen sources live after the instruction. *)
        let ti = ref 0 and tf = ref 0 and si = ref 0 and sf = ref 0 in
        let count_row () =
          ti := 0;
          tf := 0;
          si := 0;
          sf := 0;
          Bitset.iter
            (fun r ->
              if not (is_chosen r) then
                let m = Bytes.unsafe_get mark r in
                if m = '\000' then if is_float.(r) then incr tf else incr ti
                else if m = use_mark then
                  if is_float.(r) then incr sf else incr si)
            row
        in
        count_row ();
        let before = !n_chosen in
        reduce bid (!ui + !ti) (!uf + !tf) (fun f ->
            Bitset.iter
              (fun r -> if Bytes.unsafe_get mark r = '\000' then f r)
              row);
        if d >= 0 then begin
          if !n_chosen <> before then count_row ();
          let di, df = if is_float.(d) then (0, 1) else (1, 0) in
          reduce bid (di + !ti + !si) (df + !tf + !sf) (fun f ->
              Bitset.iter
                (fun r -> if Bytes.unsafe_get mark r <> def_mark then f r)
                row)
        end;
        Array.iter
          (fun u -> Bytes.unsafe_set mark (index u) '\000')
          i.Instr.srcs;
        if d >= 0 then Bytes.unsafe_set mark d '\000'
      done;
      (* End point: successor φ-arguments are live here; relieving one
         means spilling the φ's destination, not the argument.  Term uses
         and the arguments of kept φs are sticky. *)
      let succ_phis =
        match Cfg.succs cfg bid with
        | [ s ] -> (Cfg.block cfg s).Block.phis
        | _ -> []
      in
      let sticky = ref [] in
      let stick i =
        Bytes.unsafe_set mark i use_mark;
        sticky := i :: !sticky
      in
      Array.iter (fun u -> stick (index u)) b.Block.term.Instr.srcs;
      List.iter
        (fun (p : Phi.t) ->
          if not (is_chosen (index p.Phi.dst)) then
            stick (index (Phi.arg_for p ~pred:bid)))
        succ_phis;
      let live_out = live.Liveness.live_out.(bid) in
      let ni = ref 0 and nf = ref 0 in
      Bitset.iter
        (fun i ->
          if Bytes.unsafe_get mark i = use_mark || not (is_chosen i) then
            if is_float.(i) then incr nf else incr ni)
        live_out;
      let dests =
        List.filter_map
          (fun (p : Phi.t) ->
            let d = index p.Phi.dst in
            if is_chosen d then None else Some d)
          succ_phis
      in
      reduce bid !ni !nf (fun f ->
          Bitset.iter
            (fun i -> if Bytes.unsafe_get mark i = '\000' then f i)
            live_out;
          List.iter f dests);
      List.iter (fun i -> Bytes.unsafe_set mark i '\000') !sticky)
    cfg;
  let set =
    Bitset.fold (fun i s -> Reg.Set.add (Reg_index.reg regs i) s) chosen
      Reg.Set.empty
  in
  let where =
    if !stuck < 0 then None
    else Some (Printf.sprintf "block %s" (Cfg.block cfg !stuck).Block.label)
  in
  (set, where)

(* ------------------------------------------------------------------ *)
(* The spill rewrite                                                   *)

type write_src = W_reg of Reg.t | W_slot of int | W_op of Instr.op

(* Sequentialize one edge's memory-φ stores: writes target this round's
   fresh slots, but a write's source slot can itself be a destination on
   the same edge (two spilled φs trading values around a back edge), so
   emission follows the parallel-copy worklist over slots — a write is
   ready when no pending write still reads its destination slot, and a
   stuck state is a cycle, broken by hoisting one source into a
   temporary.  Register- and remat-sourced writes read no slot and are
   always ready. *)
let order_writes writes ~fresh_temp =
  let out = ref [] in
  let emit i = out := i :: !out in
  let rec go pending =
    match pending with
    | [] -> ()
    | _ -> (
        let reads_slot s =
          List.exists
            (fun (_, src, _) -> match src with W_slot s' -> s = s' | _ -> false)
            pending
        in
        match
          List.partition (fun (d, _, _) -> not (reads_slot d)) pending
        with
        | (_ :: _ as ready), blocked ->
            List.iter
              (fun (d, src, cls) ->
                match src with
                | W_reg r -> emit (Instr.spill r d)
                | W_slot s ->
                    let t = fresh_temp cls Tag.Bottom in
                    emit (Instr.reload t s);
                    emit (Instr.spill t d)
                | W_op op ->
                    let t = fresh_temp cls (Tag.Inst op) in
                    emit (Instr.make op ~dst:t []);
                    emit (Instr.spill t d))
              ready;
            go blocked
        | [], (d, W_slot s, cls) :: rest ->
            let t = fresh_temp cls Tag.Bottom in
            emit (Instr.reload t s);
            go ((d, W_reg t, cls) :: rest)
        | [], _ -> assert false)
  in
  go writes;
  List.rev !out

let rewrite_spills (cfg : Cfg.t) ~chosen ~tags ~infinite ~slots ~slot_counter =
  let tag_of r = Option.value (Reg.Tbl.find_opt tags r) ~default:Tag.Bottom in
  let is_remat r = Tag.is_inst (tag_of r) in
  let op_of r =
    match tag_of r with Tag.Inst op -> op | _ -> assert false
  in
  let slot_of r =
    match Reg.Tbl.find_opt slots r with
    | Some s -> s
    | None ->
        let s = !slot_counter in
        incr slot_counter;
        Reg.Tbl.replace slots r s;
        s
  in
  let fresh_temp cls tag =
    let t = Cfg.fresh_reg cfg cls in
    Reg.Tbl.replace tags t tag;
    Reg.Tbl.replace infinite t ();
    t
  in
  (* Per-predecessor edge tasks: argument preparations for surviving φs
     (reads — they see pre-copy slot contents, so they precede every
     store) and memory-φ stores (writes). *)
  let reads = Hashtbl.create 8 (* pred -> Instr.t list, reversed *) in
  let read_memo = Hashtbl.create 8 (* (pred, arg) -> temp *) in
  let writes = Hashtbl.create 8 (* pred -> (slot, src, cls) list, reversed *) in
  let push tbl pred x =
    Hashtbl.replace tbl pred
      (x :: Option.value (Hashtbl.find_opt tbl pred) ~default:[])
  in
  let read_temp pred arg =
    match Hashtbl.find_opt read_memo (pred, arg) with
    | Some t -> t
    | None ->
        let cls = Reg.cls arg in
        let t, i =
          if is_remat arg then
            let op = op_of arg in
            let t = fresh_temp cls (Tag.Inst op) in
            (t, Instr.make op ~dst:t [])
          else
            let t = fresh_temp cls Tag.Bottom in
            (t, Instr.reload t (slot_of arg))
        in
        Hashtbl.replace read_memo (pred, arg) t;
        push reads pred i;
        t
  in
  Cfg.iter_blocks
    (fun b ->
      b.Block.phis <-
        List.filter
          (fun (p : Phi.t) ->
            if Reg.Set.mem p.Phi.dst chosen then begin
              (* Spilled φ destination: the φ disappears.  A remat value
                 is recomputed at each use; a memory value becomes a
                 memory φ — every predecessor stores the edge's argument
                 into the destination's slot. *)
              if not (is_remat p.Phi.dst) then begin
                let dslot = slot_of p.Phi.dst in
                List.iter
                  (fun (pred, arg) ->
                    let src =
                      if Reg.Set.mem arg chosen then
                        if is_remat arg then W_op (op_of arg)
                        else W_slot (slot_of arg)
                      else W_reg arg
                    in
                    push writes pred (dslot, src, Reg.cls arg))
                  p.Phi.args
              end;
              false
            end
            else begin
              (* Surviving φ: spilled arguments are reloaded or
                 rematerialized at the end of the predecessor; one
                 temporary serves every φ reading the same value there. *)
              List.iter
                (fun (pred, arg) ->
                  if Reg.Set.mem arg chosen then
                    Phi.set_arg p ~pred (read_temp pred arg))
                p.Phi.args;
              true
            end)
          b.Block.phis)
    cfg;
  let preds =
    let tbl = Hashtbl.create 8 in
    Hashtbl.iter (fun p _ -> Hashtbl.replace tbl p ()) reads;
    Hashtbl.iter (fun p _ -> Hashtbl.replace tbl p ()) writes;
    Hashtbl.fold (fun p () acc -> p :: acc) tbl [] |> List.sort Int.compare
  in
  List.iter
    (fun pred ->
      (* φ-block predecessors are non-critical by construction: exactly
         one successor, terminator [jmp], so end-of-block placement is
         edge placement. *)
      assert (List.length (Cfg.succs cfg pred) = 1);
      let rs = List.rev (Option.value (Hashtbl.find_opt reads pred) ~default:[]) in
      let ws =
        List.rev (Option.value (Hashtbl.find_opt writes pred) ~default:[])
      in
      Block.append_before_term (Cfg.block cfg pred)
        (rs @ order_writes ws ~fresh_temp))
    preds;
  (* Instruction sites: the tag-directed spill-everywhere rewrite shared
     with the Chaitin–Briggs pipeline, against the same slot table so a
     value's body stores and φ-edge stores agree. *)
  ignore
    (Spill_code.insert ~slots cfg ~tags ~infinite
       ~spilled:(Reg.Set.elements chosen) ~slot_counter)

(* ------------------------------------------------------------------ *)
(* Chordal coloring                                                    *)

let color_chordal (cfg : Cfg.t) (dom : Dataflow.Dominance.t)
    (live : Liveness.t) ~k =
  let color = Reg.Tbl.create 64 in
  let color_of r = Reg.Tbl.find color r in
  let cls_idx = function Reg.Int -> 0 | Reg.Float -> 1 in
  let max_used = [| -1; -1 |] in
  let visit bid =
    let b = Cfg.block cfg bid in
    let busy = [| Array.make (k Reg.Int) false; Array.make (k Reg.Float) false |] in
    let set r v = busy.(cls_idx (Reg.cls r)).(color_of r) <- v in
    List.iter (fun r -> set r true) (Liveness.live_in live bid);
    let assign ?biased r =
      let ci = cls_idx (Reg.cls r) in
      let arr = busy.(ci) in
      let c =
        match biased with
        | Some c when not arr.(c) -> c
        | _ ->
            let rec first i =
              if i >= Array.length arr then
                raise
                  (Spill_code.Pressure_too_high
                     (Printf.sprintf
                        "%s: no free color for %s in %s — MaxLive exceeds k"
                        cfg.Cfg.name (Reg.to_string r) b.Block.label))
              else if arr.(i) then first (i + 1)
              else i
            in
            first 0
      in
      Reg.Tbl.replace color r c;
      arr.(c) <- true;
      if c > max_used.(ci) then max_used.(ci) <- c
    in
    (* φ destinations, biased toward an argument's color: an identity
       edge move later coalesces away at destruction. *)
    List.iter
      (fun (p : Phi.t) ->
        let arr = busy.(cls_idx (Reg.cls p.Phi.dst)) in
        let biased =
          List.find_map
            (fun (_, arg) ->
              match Reg.Tbl.find_opt color arg with
              | Some c when not arr.(c) -> Some c
              | _ -> None)
            p.Phi.args
        in
        assign ?biased p.Phi.dst)
      b.Block.phis;
    (* Death points, one backward sweep. *)
    let instrs = Array.of_list (b.Block.body @ [ b.Block.term ]) in
    let n = Array.length instrs in
    let dies = Array.make n [] in
    let dead_def = Array.make n [] in
    let live_now =
      ref
        (List.fold_left
           (fun s r -> Reg.Set.add r s)
           Reg.Set.empty (Liveness.live_out live bid))
    in
    for idx = n - 1 downto 0 do
      let i = instrs.(idx) in
      List.iter
        (fun d ->
          if not (Reg.Set.mem d !live_now) then
            dead_def.(idx) <- d :: dead_def.(idx))
        (Instr.defs i);
      live_now :=
        List.fold_left (fun s d -> Reg.Set.remove d s) !live_now (Instr.defs i);
      List.iter
        (fun u ->
          if not (Reg.Set.mem u !live_now) then begin
            dies.(idx) <- u :: dies.(idx);
            live_now := Reg.Set.add u !live_now
          end)
        (Instr.uses i)
    done;
    (* Forward assignment: free dying sources, then color the
       definition — biased toward a copy source's color. *)
    for idx = 0 to n - 1 do
      let i = instrs.(idx) in
      List.iter (fun u -> set u false) dies.(idx);
      (match i.Instr.dst with
      | Some d ->
          let biased =
            if Instr.is_copy i then Reg.Tbl.find_opt color i.Instr.srcs.(0)
            else None
          in
          assign ?biased d
      | None -> ());
      List.iter (fun d -> set d false) dead_def.(idx)
    done
  in
  (* Dominator preorder, explicit stack. *)
  let stack = ref [ cfg.Cfg.entry ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | b :: rest ->
        stack := List.rev_append (List.rev dom.Dataflow.Dominance.children.(b)) rest;
        visit b
  done;
  (color, max_used.(0) + 1, max_used.(1) + 1)

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)

let run ~mode ~machine ~max_rounds ~stats (cfg0 : Cfg.t) =
  let k = Machine.k_for machine in
  let dom, loops =
    Stats.time stats ~round:0 Stats.Cfa (fun () ->
        let dom = Dataflow.Dominance.compute cfg0 in
        (dom, Dataflow.Loops.compute cfg0 dom))
  in
  (* SSA construction, value analysis, tag propagation.  Construct adds
     φs but never blocks or edges, so dominance and loop weights stay
     valid for the SSA form. *)
  let cfg, tags, n_values =
    Stats.time stats ~round:0 Stats.Renum (fun () ->
        let ssa = Ssa.Construct.run cfg0 in
        let vals = Ssa.Values.analyze ssa in
        let tags = Reg.Tbl.create 64 in
        (match mode with
        | Mode.Ssa_remat ->
            Array.iteri
              (fun i t ->
                match t with
                | Tag.Inst _ -> Reg.Tbl.replace tags (Ssa.Values.reg vals i) t
                | Tag.Top | Tag.Bottom -> ())
              (Remat_analysis.run ssa vals)
        | _ -> ());
        (ssa, tags, Ssa.Values.count vals))
  in
  let tag_of r = Option.value (Reg.Tbl.find_opt tags r) ~default:Tag.Bottom in
  let infinite = Reg.Tbl.create 16 in
  let slots = Reg.Tbl.create 16 in
  let slot_counter = ref 0 in
  let spilled_memory = ref Reg.Set.empty in
  let spilled_remat = ref Reg.Set.empty in
  let rec rounds r =
    let live =
      Stats.time stats ~round:r Stats.Liveness (fun () ->
          Liveness.compute_ssa cfg)
    in
    Stats.count stats ~round:r Stats.Liveness_runs 1;
    let chosen, stuck =
      Stats.time stats ~round:r Stats.Costs (fun () ->
          let regs = live.Liveness.regs in
          let cost = cost_table cfg loops tag_of regs in
          let spillable =
            Array.init (Reg_index.count regs) (fun i ->
                not (Reg.Tbl.mem infinite (Reg_index.reg regs i)))
          in
          select cfg live ~k ~cost ~spillable)
    in
    if Reg.Set.is_empty chosen then begin
      (match stuck with
      | Some where ->
          raise
            (Spill_code.Pressure_too_high
               (Printf.sprintf
                  "%s: register pressure irreducible at %s (k=%d/%d)"
                  cfg.Cfg.name where machine.Machine.k_int
                  machine.Machine.k_float))
      | None -> ());
      (r, live)
    end
    else if r >= max_rounds then
      raise
        (Spill_code.Pressure_too_high
           (Printf.sprintf "%s: SSA spilling did not converge after %d rounds"
              cfg.Cfg.name max_rounds))
    else begin
      Stats.count stats ~round:r Stats.Spilled_ranges (Reg.Set.cardinal chosen);
      Reg.Set.iter
        (fun v ->
          if Tag.is_inst (tag_of v) then
            spilled_remat := Reg.Set.add v !spilled_remat
          else spilled_memory := Reg.Set.add v !spilled_memory)
        chosen;
      Stats.time stats ~round:r Stats.Spill (fun () ->
          rewrite_spills cfg ~chosen ~tags ~infinite ~slots ~slot_counter);
      rounds (r + 1)
    end
  in
  let nrounds, live = rounds 1 in
  let mi, mf = Liveness.max_live_ssa cfg live in
  let max_live_int = Array.fold_left max 0 mi in
  let max_live_float = Array.fold_left max 0 mf in
  let color, max_colors_int, max_colors_float =
    Stats.time stats ~round:nrounds Stats.Select (fun () ->
        color_chordal cfg dom live ~k)
  in
  (* Rewrite to physical registers (identity copies coalesce away) and
     destruct the colored SSA. *)
  let coalesced = ref 0 in
  Stats.time stats ~round:nrounds Stats.Coalesce (fun () ->
      let rename r = Reg.make (Reg.Tbl.find color r) (Reg.cls r) in
      Cfg.iter_blocks
        (fun b ->
          List.iter
            (fun (p : Phi.t) ->
              p.Phi.dst <- rename p.Phi.dst;
              p.Phi.args <-
                List.map (fun (pred, a) -> (pred, rename a)) p.Phi.args)
            b.Block.phis;
          b.Block.body <-
            List.filter_map
              (fun i ->
                let i = Instr.map_regs rename i in
                match (i.Instr.op, i.Instr.dst) with
                | Instr.Copy, Some d when Reg.equal d i.Instr.srcs.(0) ->
                    incr coalesced;
                    None
                | _ -> Some i)
              b.Block.body;
          b.Block.term <- Instr.map_regs rename b.Block.term)
        cfg;
      (* Cycle-scratch busy sets, one per φ-edge: colors live across the
         edge plus every parallel-copy destination.  Precomputed now —
         [run_colored] clears the φ lists while gathering moves, before
         it asks for a scratch, so the successor's φs cannot be
         consulted on demand. *)
      let edge_used = Hashtbl.create 8 in
      Cfg.iter_blocks
        (fun b ->
          List.iter
            (fun (p : Phi.t) ->
              List.iter
                (fun (pred, _) ->
                  let ui, uf =
                    match Hashtbl.find_opt edge_used pred with
                    | Some x -> x
                    | None ->
                        let ui = Array.make (k Reg.Int) false in
                        let uf = Array.make (k Reg.Float) false in
                        List.iter
                          (fun r ->
                            let arr = if Reg.is_float r then uf else ui in
                            arr.(Reg.Tbl.find color r) <- true)
                          (Liveness.live_out live pred);
                        Hashtbl.replace edge_used pred (ui, uf);
                        (ui, uf)
                  in
                  let arr = if Reg.is_float p.Phi.dst then uf else ui in
                  arr.(Reg.id p.Phi.dst) <- true)
                p.Phi.args)
            b.Block.phis)
        cfg;
      let temp_for ~pred cls =
        match Hashtbl.find_opt edge_used pred with
        | None -> None
        | Some (ui, uf) ->
            let used = match cls with Reg.Int -> ui | Reg.Float -> uf in
            let kc = Array.length used in
            let rec first i =
              if i >= kc then None
              else if used.(i) then first (i + 1)
              else Some (Reg.make i cls)
            in
            first 0
      in
      let fresh_slot () =
        let s = !slot_counter in
        incr slot_counter;
        s
      in
      let dstats = Ssa.Destruct.run_colored ~temp_for ~fresh_slot cfg in
      coalesced := !coalesced + dstats.Ssa.Destruct.coalesced;
      Stats.count stats ~round:nrounds Stats.Coalesced_copies !coalesced);
  {
    cfg;
    rounds = nrounds;
    spilled_memory = Reg.Set.cardinal !spilled_memory;
    spilled_remat = Reg.Set.cardinal !spilled_remat;
    spill_slots = !slot_counter;
    n_values;
    coalesced = !coalesced;
    max_live_int;
    max_live_float;
    max_colors_int;
    max_colors_float;
  }
