module Reg = Iloc.Reg
module Flat = Iloc.Flat

type phase = Unrestricted | Conservative

type outcome = { changed : bool; coalesced : int }

(* Merge the graph nodes and fold the loser's tag and infinite-cost
   marking into the winner: tags meet, and the merged range stays
   infinite only when every constituent was. *)
let merge_into (ctx : Context.t) g ~keep ~drop =
  let keep_reg = Interference.reg g keep and drop_reg = Interference.reg g drop in
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
  if not (Reg.Tbl.mem infinite drop_reg) then Reg.Tbl.remove infinite keep_reg;
  Reg.Tbl.remove infinite drop_reg

(* The copy worklist, harvested from the arena once per spill round
   (spill code can introduce new copies; sweeps cannot): the (dst, src)
   node pair of every copy record, in block-and-slot order, flattened
   (entry [2c] is copy [c]'s destination).  Every register of the arena
   is a node of the round's graph, so the packed map translates them
   all. *)
let harvest (fl : Flat.t) pmap =
  let n = ref 0 in
  for slot = 0 to Flat.n_instrs fl - 1 do
    if Flat.Tag.is_copy (Flat.tag fl slot) then incr n
  done;
  let copies = Array.make (2 * !n) 0 in
  let c = ref 0 in
  for slot = 0 to Flat.n_instrs fl - 1 do
    if Flat.Tag.is_copy (Flat.tag fl slot) then begin
      copies.(!c) <- pmap.(Flat.dst fl slot);
      copies.(!c + 1) <- pmap.(Flat.src fl slot 0);
      c := !c + 2
    end
  done;
  copies

(* The split pairs as node pairs of the graph whose packed map is
   [pmap], in list order, [-1] for a register that is not a node: spill
   code can take a pair's register out of a later round's arena. *)
let split_nodes split_pairs pmap =
  let node r =
    let p = Reg.hash r in
    if p < Array.length pmap then pmap.(p) else -1
  in
  let sp = Array.make (2 * List.length split_pairs) (-1) in
  List.iteri
    (fun c (a, b) ->
      sp.(2 * c) <- node a;
      sp.((2 * c) + 1) <- node b)
    split_pairs;
  sp

type worklist = { mutable copies : int array; split_nodes : int array }

let worklist (ctx : Context.t) g =
  Context.time ctx Stats.Coalesce (fun () ->
      let pmap = Interference.packed_map g in
      {
        copies = harvest ctx.Context.flat pmap;
        split_nodes = split_nodes ctx.Context.split_pairs pmap;
      })

(* Back to registers, once per round, after the last sweep: each node
   to its representative's register, in list order, a pair whose two
   sides became one live range dropped. *)
let restore_split_pairs (ctx : Context.t) g sp =
  let name r i =
    if i < 0 then r else Interference.reg g (Interference.find g i)
  in
  let rec go c = function
    | [] -> []
    | (a, b) :: rest ->
        let a = name a sp.(2 * c) and b = name b sp.((2 * c) + 1) in
        if Reg.equal a b then go (c + 1) rest else (a, b) :: go (c + 1) rest
  in
  ctx.Context.split_pairs <- go 0 ctx.Context.split_pairs

(* Briggs' conservative test.  The graph is maintained in place after
   every merge, so — unlike the rebuild-between-sweeps scheme — the
   degrees consulted here are always current and several conservative
   merges per sweep are sound.  One scan over both neighbor vectors
   counts the union's significant members, deduplicated by
   epoch-stamped marks, and stops at the [k]th: the merge is denied
   then, whatever the rest of the union holds. *)
let briggs_ok (ctx : Context.t) g di si =
  Context.count ctx Stats.Briggs_tests 1;
  let kk = ctx.Context.k (Reg.cls (Interference.reg g di)) in
  let marks, e = Context.fresh_marks ctx (Interference.n_nodes g) in
  let significant = ref 0 in
  let enough nb =
    nb <> di && nb <> si && marks.(nb) <> e
    && Interference.significant g nb
    && begin
         marks.(nb) <- e;
         incr significant;
         !significant >= kk
       end
  in
  let ok =
    kk > 0
    && not
         (Interference.exists_neighbor enough g di
         || Interference.exists_neighbor enough g si)
  in
  if not ok then Context.count ctx Stats.Briggs_denied 1;
  ok

let pass phase (ctx : Context.t) g wl =
  Context.time ctx Stats.Coalesce (fun () ->
      Context.count ctx Stats.Coalesce_sweeps 1;
      let copies = wl.copies in
      (* Canonicalize every entry through [find] before the first merge
         of this sweep: the live ranges the copy would join had the
         routine been renamed after every earlier sweep.  The split-pair
         test below must see those, not the ones mid-sweep merges would
         give it. *)
      for e = 0 to Array.length copies - 1 do
        copies.(e) <- Interference.find g copies.(e)
      done;
      let n = Interference.n_nodes g in
      let key a b = if a < b then (a * n) + b else (b * n) + a in
      let split_set = Hashtbl.create 16 in
      let sp = wl.split_nodes in
      for c = 0 to (Array.length sp / 2) - 1 do
        let a = sp.(2 * c) and b = sp.((2 * c) + 1) in
        if a >= 0 && b >= 0 then
          Hashtbl.replace split_set
            (key (Interference.find g a) (Interference.find g b))
            ()
      done;
      let is_split d s = Hashtbl.mem split_set (key d s) in
      let coalesced = ref 0 in
      let interfering = ref 0 in
      (* Survivors are compacted to the front of [copies] in place: the
         write position never passes the read position. *)
      let kept = ref 0 in
      for c = 0 to (Array.length copies / 2) - 1 do
        let d = copies.(2 * c) and s = copies.((2 * c) + 1) in
        let di = Interference.find g d and si = Interference.find g s in
        if di = si then ()
          (* became an identity copy: [rewrite] deletes it *)
        else if Interference.interfere g di si then
          (* interference between representatives only grows under
             merging, so this copy can never be coalesced: retire it
             from the worklist for good *)
          incr interfering
        else begin
          let ok =
            match phase with
            | Unrestricted -> not (is_split d s)
            | Conservative -> is_split d s && briggs_ok ctx g di si
          in
          if ok then begin
            merge_into ctx g ~keep:di ~drop:si;
            incr coalesced
          end
          else begin
            copies.(2 * !kept) <- d;
            copies.((2 * !kept) + 1) <- s;
            incr kept
          end
        end
      done;
      if 2 * !kept < Array.length copies then
        wl.copies <- Array.sub copies 0 (2 * !kept);
      Context.count ctx Stats.Interfering_copies !interfering;
      if !coalesced = 0 then { changed = false; coalesced = 0 }
      else begin
        ctx.Context.coalesced <- ctx.Context.coalesced + !coalesced;
        Context.count ctx Stats.Coalesced_copies !coalesced;
        { changed = true; coalesced = !coalesced }
      end)

let rename g id fl =
  let pmap = Interference.packed_map g in
  Flat.rename fl (fun p ->
      let i = if p < Array.length pmap then pmap.(p) else -1 in
      if i < 0 then p else (2 * id (Interference.find g i)) + (p land 1))

let rewrite (ctx : Context.t) g wl =
  Context.time ctx Stats.Coalesce (fun () ->
      restore_split_pairs ctx g wl.split_nodes;
      ctx.Context.flat <-
        rename g (fun i -> Reg.id (Interference.reg g i)) ctx.Context.flat)
