module Reg = Iloc.Reg
module Flat = Iloc.Flat

type phase = Unrestricted | Conservative

type outcome = { changed : bool; coalesced : int }

(* Unordered canonical form so a split is recognized no matter which side
   the copy ends up writing. *)
let norm_pair a b = if Reg.compare a b <= 0 then (a, b) else (b, a)

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
   pair of every copy record, in block-and-slot order — the order the
   former whole-routine rescan visited them in. *)
let harvest (fl : Flat.t) =
  let acc = ref [] in
  for slot = Flat.n_instrs fl - 1 downto 0 do
    if Flat.Tag.is_copy (Flat.tag fl slot) then
      acc :=
        ( Flat.reg_of_packed (Flat.dst fl slot),
          Flat.reg_of_packed (Flat.src fl slot 0) )
        :: !acc
  done;
  !acc

let pass phase (ctx : Context.t) =
  let g = Context.graph ctx in
  Context.time ctx Stats.Coalesce (fun () ->
      Context.count ctx Stats.Coalesce_sweeps 1;
      let worklist =
        match ctx.Context.copies with
        | Some l -> l
        | None ->
            let l = harvest ctx.Context.flat in
            ctx.Context.copies <- Some l;
            l
      in
      (* Canonicalize every entry through [find] before the first merge
         of this sweep: the names the copy would carry had the routine
         been renamed after every earlier sweep.  The split-pair test
         below must see those names, not the ones mid-sweep merges
         would give it. *)
      let entries =
        List.map
          (fun ((d0, s0) as e) ->
            match
              (Interference.index_opt g d0, Interference.index_opt g s0)
            with
            | Some di, Some si ->
                ( Interference.reg g (Interference.find g di),
                  Interference.reg g (Interference.find g si) )
            | _ -> e)
          worklist
      in
      let split_set = Hashtbl.create 16 in
      List.iter
        (fun (a, b) -> Hashtbl.replace split_set (norm_pair a b) ())
        ctx.Context.split_pairs;
      let is_split d s = Hashtbl.mem split_set (norm_pair d s) in
      (* Briggs' conservative test.  The graph is maintained in place
         after every merge, so — unlike the rebuild-between-sweeps
         scheme — the degrees consulted here are always current and
         several conservative merges per sweep are sound.

         Fast path: the union of the two neighbor sets has at most
         sig_neighbors(di) + sig_neighbors(si) significant members
         (di ∉ adj(si) here, so neither count includes the other node),
         and when even that bound is below k the merge is safe without
         touching adjacency.  Otherwise one pass over both vectors
         counts the union exactly, deduplicated by epoch-stamped marks
         instead of sort_uniq on freshly allocated lists. *)
      let briggs_ok di si =
        Context.count ctx Stats.Briggs_tests 1;
        let kk = ctx.Context.k (Reg.cls (Interference.reg g di)) in
        let ok =
          Interference.sig_neighbors g di + Interference.sig_neighbors g si
          < kk
          ||
          let marks, e = Context.fresh_marks ctx (Interference.n_nodes g) in
          let significant = ref 0 in
          let visit nb =
            if
              nb <> di && nb <> si && marks.(nb) <> e
              && Interference.significant g nb
            then begin
              marks.(nb) <- e;
              incr significant
            end
          in
          Interference.iter_neighbors visit g di;
          Interference.iter_neighbors visit g si;
          !significant < kk
        in
        if not ok then Context.count ctx Stats.Briggs_denied 1;
        ok
      in
      let coalesced = ref 0 in
      let interfering = ref 0 in
      let survivors = ref [] in
      List.iter
        (fun ((d, s) as e) ->
          match (Interference.index_opt g d, Interference.index_opt g s) with
          | Some d0, Some s0 ->
              let di = Interference.find g d0
              and si = Interference.find g s0 in
              if di = si then ()
                (* became an identity copy: [rewrite] deletes it *)
              else if Interference.interfere g di si then
                (* interference between representatives only grows under
                   merging, so this copy can never be coalesced: retire
                   it from the worklist for good *)
                incr interfering
              else begin
                let ok =
                  match phase with
                  | Unrestricted -> not (is_split d s)
                  | Conservative -> is_split d s && briggs_ok di si
                in
                if ok then begin
                  merge_into ctx g ~keep:di ~drop:si;
                  incr coalesced
                end
                else survivors := e :: !survivors
              end
          | _ ->
              (* not nodes: cannot happen for renumbered code *)
              survivors := e :: !survivors)
        entries;
      ctx.Context.copies <- Some (List.rev !survivors);
      Context.count ctx Stats.Interfering_copies !interfering;
      if !coalesced = 0 then { changed = false; coalesced = 0 }
      else begin
        let rename r =
          match Interference.index_opt g r with
          | None -> r
          | Some i -> Interference.reg g (Interference.find g i)
        in
        ctx.Context.split_pairs <-
          List.filter_map
            (fun (a, b) ->
              let a = rename a and b = rename b in
              if Reg.equal a b then None else Some (a, b))
            ctx.Context.split_pairs;
        ctx.Context.coalesced <- ctx.Context.coalesced + !coalesced;
        Context.count ctx Stats.Coalesced_copies !coalesced;
        { changed = true; coalesced = !coalesced }
      end)

let rename g id fl =
  let pmap = Interference.packed_map g in
  Flat.rename fl (fun p ->
      let i = if p < Array.length pmap then pmap.(p) else -1 in
      if i < 0 then p else (2 * id (Interference.find g i)) + (p land 1))

let rewrite (ctx : Context.t) =
  let g = Context.graph ctx in
  Context.time ctx Stats.Coalesce (fun () ->
      ctx.Context.flat <-
        rename g (fun i -> Reg.id (Interference.reg g i)) ctx.Context.flat);
  (* The graph was maintained merge by merge; only liveness is now
     stale (merged ranges, renamed registers). *)
  Context.invalidate_liveness ctx
