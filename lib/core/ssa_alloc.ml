module Flat = Iloc.Flat
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

(* Between SSA construction and the bridge before destruction the
   routine lives on the arena: the records, plus each block's φs beside
   them ([phis.(b)]). *)

(* ------------------------------------------------------------------ *)
(* Spill costs                                                         *)

(* The same metric as {!Spill_cost}, without the interference-graph
   plumbing: every reload costs 2 (address arithmetic folded), every
   rematerialization 1, every store 2, weighted by 10^loop-depth of the
   site.  φ traffic is charged at the predecessor's weight — that is
   where the memory-φ store or the argument reload lands.  Indexed by
   [regs], the round's liveness numbering; each value's charges are
   summed in program order. *)
let cost_table (fl : Flat.t) (phis : Flat.phi array array) loops tag_of
    (live : Liveness.t) =
  let regs = live.Liveness.regs and map = live.Liveness.pmap in
  let nr = Reg_index.count regs in
  let remat =
    Array.init nr (fun i -> Tag.is_inst (tag_of (Reg_index.reg regs i)))
  in
  let costs = Array.make nr 0. in
  let add i x = costs.(i) <- costs.(i) +. x in
  let w b = Dataflow.Loops.weight loops b in
  let use_cost i wb = if remat.(i) then wb else 2. *. wb in
  let code = fl.Flat.code in
  for b = 0 to Flat.n_blocks fl - 1 do
    let wb = w b in
    Array.iter
      (fun (p : Flat.phi) ->
        let d = map.(p.Flat.dst) in
        if not remat.(d) then
          List.iter (fun (pred, _) -> add d (2. *. w pred)) p.Flat.args;
        List.iter
          (fun (pred, a) ->
            let a = map.(a) in
            add a (use_cost a (w pred)))
          p.Flat.args)
      phis.(b);
    for slot = Flat.block_first fl b to Flat.block_term fl b do
      let o = slot * Flat.stride in
      let d = code.(o + Flat.f_dst) in
      if d >= 0 then begin
        let d = map.(d) in
        if not remat.(d) then add d (2. *. wb)
      end;
      for k = Flat.f_s0 to Flat.f_s2 do
        let u = code.(o + k) in
        if u >= 0 then begin
          let u = map.(u) in
          add u (use_cost u wb)
        end
      done
    done
  done;
  costs

(* ------------------------------------------------------------------ *)
(* Spill selection                                                     *)

type selection = {
  chosen : Reg.Set.t;
  stuck : string option;
  pressure_int : int;
  pressure_float : int;
}

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
   point lowers the count at the next.  The largest count met per class
   is returned too: in a round that chooses nothing it is MaxLive.  The
   [Reg.Set] sweep this must agree with, choice for choice, is kept in
   test/reference.ml. *)
let select (fl : Flat.t) (phis : Flat.phi array array) (live : Liveness.t) ~k
    ~cost ~spillable =
  let regs = live.Liveness.regs and map = live.Liveness.pmap in
  let nr = Reg_index.count regs in
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
  let peak_int = ref 0 and peak_float = ref 0 in
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
    if ni > !peak_int then peak_int := ni;
    if nf > !peak_float then peak_float := nf;
    if ni > k_int then relieve bid ~float:false ~need:(ni - k_int) each;
    if nf > k_float then relieve bid ~float:true ~need:(nf - k_float) each
  in
  let nb = Flat.n_blocks fl in
  let max_len = ref 1 in
  for b = 0 to nb - 1 do
    max_len := max !max_len (Flat.block_term fl b - Flat.block_first fl b + 1)
  done;
  let after = Bitset.slab ~rows:!max_len ~capacity:nr () in
  let code = fl.Flat.code in
  let stride = Flat.stride in
  for bid = 0 to nb - 1 do
    let first = Flat.block_first fl bid in
    let n = Flat.block_term fl bid - first + 1 in
    let own = phis.(bid) in
    (* Entry point: live-in values and every φ destination coexist just
       after the entry parallel copy. *)
    let live_in = live.Liveness.live_in.(bid) in
    let ni = ref 0 and nf = ref 0 in
    let count i =
      if not (is_chosen i) then if is_float.(i) then incr nf else incr ni
    in
    Bitset.iter count live_in;
    Array.iter (fun (p : Flat.phi) -> count map.(p.Flat.dst)) own;
    reduce bid !ni !nf (fun f ->
        Bitset.iter f live_in;
        Array.iter (fun (p : Flat.phi) -> f map.(p.Flat.dst)) own);
    (* Live-after rows, one backward walk. *)
    Bitset.assign ~dst:after.(n - 1) live.Liveness.live_out.(bid);
    for idx = n - 1 downto 1 do
      let row = after.(idx - 1) and o = (first + idx) * stride in
      Bitset.assign ~dst:row after.(idx);
      let d = code.(o + Flat.f_dst) in
      if d >= 0 then Bitset.unsafe_remove row map.(d);
      for k = Flat.f_s0 to Flat.f_s2 do
        let u = code.(o + k) in
        if u >= 0 then Bitset.unsafe_add row map.(u)
      done
    done;
    (* Instruction points.  At the use point the distinct sources are
       sticky and the other values live through the instruction are
       candidates; at the definition point the destination is sticky
       and everything live after it, sources included, is a
       candidate. *)
    for idx = 0 to n - 1 do
      let o = (first + idx) * stride and row = after.(idx) in
      let ui = ref 0 and uf = ref 0 in
      for k = Flat.f_s0 to Flat.f_s2 do
        let u = code.(o + k) in
        if u >= 0 then begin
          let u = map.(u) in
          if Bytes.unsafe_get mark u = '\000' then begin
            Bytes.unsafe_set mark u use_mark;
            if is_float.(u) then incr uf else incr ui
          end
        end
      done;
      let d = code.(o + Flat.f_dst) in
      let d = if d >= 0 then map.(d) else -1 in
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
      for k = Flat.f_s0 to Flat.f_s2 do
        let u = code.(o + k) in
        if u >= 0 then Bytes.unsafe_set mark map.(u) '\000'
      done;
      if d >= 0 then Bytes.unsafe_set mark d '\000'
    done;
    (* End point: successor φ-arguments are live here; relieving one
       means spilling the φ's destination, not the argument.  Term uses
       and the arguments of kept φs are sticky. *)
    let succ_phis =
      if fl.Flat.succ_idx.(bid + 1) - fl.Flat.succ_idx.(bid) = 1 then
        phis.(fl.Flat.succ.(fl.Flat.succ_idx.(bid)))
      else [||]
    in
    let sticky = ref [] in
    let stick i =
      Bytes.unsafe_set mark i use_mark;
      sticky := i :: !sticky
    in
    let o = (first + n - 1) * stride in
    for k = Flat.f_s0 to Flat.f_s2 do
      let u = code.(o + k) in
      if u >= 0 then stick map.(u)
    done;
    Array.iter
      (fun (p : Flat.phi) ->
        if not (is_chosen map.(p.Flat.dst)) then
          stick map.(List.assoc bid p.Flat.args))
      succ_phis;
    let live_out = live.Liveness.live_out.(bid) in
    let ni = ref 0 and nf = ref 0 in
    Bitset.iter
      (fun i ->
        if Bytes.unsafe_get mark i = use_mark || not (is_chosen i) then
          if is_float.(i) then incr nf else incr ni)
      live_out;
    let dests =
      Array.fold_right
        (fun (p : Flat.phi) acc ->
          let d = map.(p.Flat.dst) in
          if is_chosen d then acc else d :: acc)
        succ_phis []
    in
    reduce bid !ni !nf (fun f ->
        Bitset.iter
          (fun i -> if Bytes.unsafe_get mark i = '\000' then f i)
          live_out;
        List.iter f dests);
    List.iter (fun i -> Bytes.unsafe_set mark i '\000') !sticky
  done;
  {
    chosen =
      Bitset.fold (fun i s -> Reg.Set.add (Reg_index.reg regs i) s) chosen
        Reg.Set.empty;
    stuck =
      (if !stuck < 0 then None
       else Some (Printf.sprintf "block %s" fl.Flat.labels.(!stuck)));
    pressure_int = !peak_int;
    pressure_float = !peak_float;
  }

(* ------------------------------------------------------------------ *)
(* Chordal coloring                                                    *)

(* Colors by dense index of [live]'s numbering, for every value of the
   routine reachable from the entry. *)
let color_chordal (fl : Flat.t) (phis : Flat.phi array array)
    (dom : Dataflow.Dominance.t) (live : Liveness.t) ~k =
  let regs = live.Liveness.regs and map = live.Liveness.pmap in
  let nr = Reg_index.count regs in
  let color = Array.make nr (-1) in
  let is_float = Array.init nr (fun i -> Reg.is_float (Reg_index.reg regs i)) in
  let cls_idx i = if is_float.(i) then 1 else 0 in
  let max_used = [| -1; -1 |] in
  let code = fl.Flat.code in
  let stride = Flat.stride in
  let live_now = Bitset.create nr in
  let visit bid =
    let busy = [| Array.make (k Reg.Int) false; Array.make (k Reg.Float) false |] in
    let set i v = busy.(cls_idx i).(color.(i)) <- v in
    Bitset.iter (fun i -> set i true) live.Liveness.live_in.(bid);
    let assign ?biased i =
      let ci = cls_idx i in
      let arr = busy.(ci) in
      let c =
        match biased with
        | Some c when not arr.(c) -> c
        | _ ->
            let rec first j =
              if j >= Array.length arr then
                raise
                  (Spill_code.Pressure_too_high
                     (Printf.sprintf
                        "%s: no free color for %s in %s — MaxLive exceeds k"
                        fl.Flat.name
                        (Reg.to_string (Reg_index.reg regs i))
                        fl.Flat.labels.(bid)))
              else if arr.(j) then first (j + 1)
              else j
            in
            first 0
      in
      color.(i) <- c;
      arr.(c) <- true;
      if c > max_used.(ci) then max_used.(ci) <- c
    in
    (* φ destinations, biased toward an argument's color: an identity
       edge move later coalesces away at destruction. *)
    Array.iter
      (fun (p : Flat.phi) ->
        let d = map.(p.Flat.dst) in
        let arr = busy.(cls_idx d) in
        let biased =
          List.find_map
            (fun (_, a) ->
              let c = color.(map.(a)) in
              if c >= 0 && not arr.(c) then Some c else None)
            p.Flat.args
        in
        assign ?biased d)
      phis.(bid);
    (* Death points, one backward sweep. *)
    let first = Flat.block_first fl bid in
    let n = Flat.block_term fl bid - first + 1 in
    let dies = Array.make n [] in
    let dead_def = Array.make n [] in
    Bitset.assign ~dst:live_now live.Liveness.live_out.(bid);
    for idx = n - 1 downto 0 do
      let o = (first + idx) * stride in
      let d = code.(o + Flat.f_dst) in
      if d >= 0 then begin
        let d = map.(d) in
        if not (Bitset.unsafe_mem live_now d) then
          dead_def.(idx) <- d :: dead_def.(idx);
        Bitset.unsafe_remove live_now d
      end;
      for k = Flat.f_s0 to Flat.f_s2 do
        let u = code.(o + k) in
        if u >= 0 then begin
          let u = map.(u) in
          if not (Bitset.unsafe_mem live_now u) then begin
            dies.(idx) <- u :: dies.(idx);
            Bitset.unsafe_add live_now u
          end
        end
      done
    done;
    (* Forward assignment: free dying sources, then color the
       definition — biased toward a copy source's color. *)
    for idx = 0 to n - 1 do
      let o = (first + idx) * stride in
      List.iter (fun u -> set u false) dies.(idx);
      let d = code.(o + Flat.f_dst) in
      if d >= 0 then begin
        let biased =
          if Flat.Tag.is_copy code.(o + Flat.f_tag) then
            let c = color.(map.(code.(o + Flat.f_s0))) in
            if c >= 0 then Some c else None
          else None
        in
        assign ?biased map.(d)
      end;
      List.iter (fun d -> set d false) dead_def.(idx)
    done
  in
  (* Dominator preorder, explicit stack. *)
  let stack = ref [ fl.Flat.entry ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | b :: rest ->
        stack :=
          List.rev_append (List.rev dom.Dataflow.Dominance.children.(b)) rest;
        visit b
  done;
  (color, max_used.(0) + 1, max_used.(1) + 1)

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)

let run ~mode ~machine ~max_rounds ~stats ~dom ~loops (fl0 : Flat.t) =
  let k = Machine.k_for machine in
  (* SSA construction on the front half's encoding, and tag propagation.
     Construction adds φs but no blocks or edges, so [dom] and [loops]
     hold for the SSA form.  Value [v] is register [value_reg v]; the
     SSA arena is the input's records with every operand renamed. *)
  let fl, phis, tags, n_values =
    Stats.time stats ~round:0 Stats.Renum (fun () ->
        let sv = Ssa.Construct.run_flat ~dom fl0 in
        let value_reg v = Dataflow.Int_vec.get sv.Ssa.Construct.value_reg v in
        let n = sv.Ssa.Construct.n_values in
        let code = Array.copy fl0.Flat.code in
        for s = 0 to Flat.n_instrs fl0 - 1 do
          let o = s * Flat.stride in
          let d = sv.Ssa.Construct.slot_def.(s) in
          if d >= 0 then code.(o + Flat.f_dst) <- value_reg d;
          for k = 0 to 2 do
            let u = sv.Ssa.Construct.slot_use.((3 * s) + k) in
            if u >= 0 then code.(o + Flat.f_s0 + k) <- value_reg u
          done
        done;
        let phi_idx = sv.Ssa.Construct.phi_idx in
        let phis =
          Array.init (Flat.n_blocks fl0) (fun b ->
              let preds = Flat.preds_list fl0 b in
              Array.init (phi_idx.(b + 1) - phi_idx.(b)) (fun i ->
                  let i = phi_idx.(b) + i in
                  let lo = sv.Ssa.Construct.phi_arg_idx.(i) in
                  {
                    Flat.dst = value_reg sv.Ssa.Construct.phi_def.(i);
                    args =
                      List.mapi
                        (fun j pred ->
                          (pred, value_reg sv.Ssa.Construct.phi_args.(lo + j)))
                        preds;
                  }))
        in
        let tags = Reg.Tbl.create 64 in
        (match mode with
        | Mode.Ssa_remat ->
            Array.iteri
              (fun v t ->
                match t with
                | Tag.Inst _ ->
                    Reg.Tbl.replace tags (Flat.reg_of_packed (value_reg v)) t
                | Tag.Top | Tag.Bottom -> ())
              (Remat_analysis.run_flat fl0 sv)
        | _ -> ());
        ( { fl0 with Flat.code; supply_last = fl0.Flat.supply_last + n },
          phis,
          tags,
          n ))
  in
  let name = fl.Flat.name in
  let tag_of r = Option.value (Reg.Tbl.find_opt tags r) ~default:Tag.Bottom in
  let infinite = Reg.Tbl.create 16 in
  let slots = Reg.Tbl.create 16 in
  let slot_counter = ref 0 in
  let spilled_memory = ref Reg.Set.empty in
  let spilled_remat = ref Reg.Set.empty in
  (* No round adds a block or an edge: the front half's order holds for
     every round's liveness. *)
  let order = Dataflow.Dominance.postorder dom in
  let rec rounds r fl =
    let live =
      Stats.time stats ~round:r Stats.Liveness (fun () ->
          Liveness.compute fl ~order ~phis)
    in
    Stats.count stats ~round:r Stats.Liveness_runs 1;
    let sel =
      Stats.time stats ~round:r Stats.Costs (fun () ->
          let regs = live.Liveness.regs in
          let cost = cost_table fl phis loops tag_of live in
          let spillable =
            Array.init (Reg_index.count regs) (fun i ->
                not (Reg.Tbl.mem infinite (Reg_index.reg regs i)))
          in
          select fl phis live ~k ~cost ~spillable)
    in
    let chosen = sel.chosen in
    if Reg.Set.is_empty chosen then begin
      (match sel.stuck with
      | Some where ->
          raise
            (Spill_code.Pressure_too_high
               (Printf.sprintf
                  "%s: register pressure irreducible at %s (k=%d/%d)" name
                  where machine.Machine.k_int machine.Machine.k_float))
      | None -> ());
      (r, fl, live, sel)
    end
    else if r >= max_rounds then
      raise
        (Spill_code.Pressure_too_high
           (Printf.sprintf "%s: SSA spilling did not converge after %d rounds"
              name max_rounds))
    else begin
      Stats.count stats ~round:r Stats.Spilled_ranges (Reg.Set.cardinal chosen);
      Reg.Set.iter
        (fun v ->
          if Tag.is_inst (tag_of v) then
            spilled_remat := Reg.Set.add v !spilled_remat
          else spilled_memory := Reg.Set.add v !spilled_memory)
        chosen;
      (* φ-edge code and instruction sites, one splice. *)
      let fl =
        Stats.time stats ~round:r Stats.Spill (fun () ->
            snd
              (Spill_code.insert_flat fl ~phis ~tags ~infinite
                 ~spilled:(Reg.Set.elements chosen) ~slots ~slot_counter))
      in
      rounds (r + 1) fl
    end
  in
  let nrounds, fl, live, sel = rounds 1 fl in
  let color, max_colors_int, max_colors_float =
    Stats.time stats ~round:nrounds Stats.Select (fun () ->
        color_chordal fl phis dom live ~k)
  in
  (* Rewrite to physical registers (identity copies coalesce away),
     bridge to [Cfg.t] and destruct the colored SSA. *)
  let coalesced = ref 0 in
  let cfg =
    Stats.time stats ~round:nrounds Stats.Coalesce (fun () ->
        let regs = live.Liveness.regs and map = live.Liveness.pmap in
        let phys p = (2 * color.(map.(p))) lor (p land 1) in
        let colored = Flat.rename fl phys in
        coalesced := Flat.n_instrs fl - Flat.n_instrs colored;
        let cfg = Flat.to_routine colored in
        Array.iteri
          (fun b row ->
            (Iloc.Cfg.block cfg b).Iloc.Block.phis <-
              Array.to_list
                (Array.map
                   (fun (p : Flat.phi) ->
                     Iloc.Phi.make
                       (Flat.reg_of_packed (phys p.Flat.dst))
                       (List.map
                          (fun (pred, a) -> (pred, Flat.reg_of_packed (phys a)))
                          p.Flat.args))
                   row))
          phis;
        (* Cycle-scratch busy sets, one per φ-edge: colors live across
           the edge plus every parallel-copy destination. *)
        let edge_used = Hashtbl.create 8 in
        Array.iter
          (fun row ->
            Array.iter
              (fun (p : Flat.phi) ->
                List.iter
                  (fun (pred, _) ->
                    let ui, uf =
                      match Hashtbl.find_opt edge_used pred with
                      | Some x -> x
                      | None ->
                          let ui = Array.make (k Reg.Int) false in
                          let uf = Array.make (k Reg.Float) false in
                          Bitset.iter
                            (fun i ->
                              let arr =
                                if Reg.is_float (Reg_index.reg regs i) then uf
                                else ui
                              in
                              arr.(color.(i)) <- true)
                            live.Liveness.live_out.(pred);
                          Hashtbl.replace edge_used pred (ui, uf);
                          (ui, uf)
                    in
                    let arr = if p.Flat.dst land 1 = 1 then uf else ui in
                    arr.(color.(map.(p.Flat.dst))) <- true)
                  p.Flat.args)
              row)
          phis;
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
        Stats.count stats ~round:nrounds Stats.Coalesced_copies !coalesced;
        cfg)
  in
  {
    cfg;
    rounds = nrounds;
    spilled_memory = Reg.Set.cardinal !spilled_memory;
    spilled_remat = Reg.Set.cardinal !spilled_remat;
    spill_slots = !slot_counter;
    n_values;
    coalesced = !coalesced;
    max_live_int = sel.pressure_int;
    max_live_float = sel.pressure_float;
    max_colors_int;
    max_colors_float;
  }
