module Reg = Iloc.Reg
module Instr = Iloc.Instr

exception Pressure_too_high of string

(* Test-only fault injection (see mli).  Read once per reload insertion;
   never written by library code. *)
let fault_reload_skew = ref 0

(* Second planted fault (see mli): integer-immediate rematerialization
   sequences recompute a biased constant. *)
let fault_remat_bias = ref 0

type stats = {
  remat_lrs : int;
  memory_lrs : int;
  new_slots : int;
}

module Flat = Iloc.Flat

(* A memory-φ store's source on one edge: an unspilled register, the
   slot of a spilled argument, or a recomputable spilled argument. *)
type write_src = W_reg of int | W_slot of int | W_remat of int

(* The rewrite, splicing into a fresh code buffer with zero
   per-instruction allocation on the untouched path (the overwhelmingly
   common one).  Fresh temporaries continue from the arena's supply
   watermark — φ-edge temporaries first, then instruction sites in
   block order — and slots are assigned in the same order, so a round's
   output is a function of its input alone. *)
let insert_flat (fl : Flat.t) ~phis ~tags ~infinite ~spilled ~slots
    ~slot_counter =
  List.iter
    (fun r ->
      if Reg.Tbl.mem infinite r then
        raise
          (Pressure_too_high
             (Printf.sprintf
                "spill temporary %s selected for spilling; %s has too few registers"
                (Reg.to_string r) fl.Flat.name)))
    spilled;
  let b = Flat.Splice.create fl in
  (* Packed-indexed classification of the spilled set, in a mark's low
     two bits: '\001' = memory (Bottom/Top tag, spilled to a stack slot),
     '\002' = recomputable (Inst tag); '\000' = not spilled.  Bits 2
     and 3 record that the value was counted in the stats.  [ex] is a
     recomputable value's payload, encoded once per live range here and
     reused at every recompute site, or a memory value's frame slot (-1
     until it has one: [slots] is consulted here, once per value). *)
  let bound =
    List.fold_left (fun m r -> max m (Flat.packed_of_reg r + 1)) 0 spilled
  in
  let mark = Bytes.make bound '\000' in
  let remat_tag = Array.make bound 0 in
  let ex = Array.make bound (-1) in
  let remat_inst = Array.make bound Tag.Bottom in
  let tag_of r = Option.value (Reg.Tbl.find_opt tags r) ~default:Tag.Bottom in
  let bias = !fault_remat_bias in
  List.iter
    (fun r ->
      let p = Flat.packed_of_reg r in
      match tag_of r with
      | Tag.Inst op as inst ->
          Bytes.set mark p '\002';
          remat_inst.(p) <- inst;
          let t, e =
            match op with
            | Instr.Ldi k -> (Flat.Tag.ldi, k + bias)
            | Instr.Lfi x -> (Flat.Tag.lfi, Flat.Splice.intern_float b x)
            | Instr.Lfp off -> (Flat.Tag.lfp, off)
            | Instr.Laddr (s, off) ->
                ( Flat.Tag.laddr,
                  Flat.Splice.emit_pair b (Flat.Splice.intern_sym b s) off )
            | Instr.Ldro (s, off) ->
                ( Flat.Tag.ldro,
                  Flat.Splice.emit_pair b (Flat.Splice.intern_sym b s) off )
            | _ ->
                (* Tag soundness: an Inst tag is a never-killed opcode. *)
                invalid_arg
                  (Printf.sprintf "Spill_code.insert_flat: bad remat tag for %s"
                     (Reg.to_string r))
          in
          remat_tag.(p) <- t;
          ex.(p) <- e
      | Tag.Bottom | Tag.Top -> (
          Bytes.set mark p '\001';
          match Reg.Tbl.find_opt slots r with Some s -> ex.(p) <- s | None -> ()))
    spilled;
  let m p =
    if p >= 0 && p < bound then
      Char.unsafe_chr (Char.code (Bytes.get mark p) land 3)
    else '\000'
  in
  (* Distinct-live-range stats, counted at first touch. *)
  let n_remat = ref 0 and n_mem = ref 0 in
  let note bit n p =
    let c = Char.code (Bytes.get mark p) in
    if c land bit = 0 then begin
      Bytes.set mark p (Char.unsafe_chr (c lor bit));
      incr n
    end
  in
  let note_remat = note 4 n_remat and note_mem = note 8 n_mem in
  let new_slots = ref 0 in
  let slot_of p =
    let s = ex.(p) in
    if s >= 0 then s
    else begin
      let s = !slot_counter in
      incr slot_counter;
      incr new_slots;
      ex.(p) <- s;
      s
    end
  in
  let supply = ref fl.Flat.supply_last in
  let fresh_temp src_packed tag =
    incr supply;
    let cls = if src_packed land 1 = 0 then Reg.Int else Reg.Float in
    let r = Reg.make !supply cls in
    Reg.Tbl.replace tags r tag;
    Reg.Tbl.replace infinite r ();
    (2 * !supply) + (src_packed land 1)
  in
  (* φ-edge code, one record list per predecessor, built before the
     splice so its temporaries number first.  A spilled φ destination
     disappears: a recomputable one is recomputed at its uses, a memory
     one becomes a memory φ whose predecessors store the edge's argument
     into its slot.  A surviving φ's spilled arguments are reloaded or
     recomputed at the end of the predecessor, one temporary per
     (predecessor, value).  Reads see pre-copy slot contents, so they
     precede every store. *)
  let nb = Flat.n_blocks fl in
  let edge_code =
    if Array.length phis = 0 then [||]
    else begin
      (* The planted bias applies to instruction sites only. *)
      let unbiased p =
        if remat_tag.(p) = Flat.Tag.ldi then ex.(p) - bias else ex.(p)
      in
      let reads = Array.make nb [] (* reversed records *) in
      let writes = Array.make nb [] (* reversed (slot, src, src packed) *) in
      let read_memo = Hashtbl.create 8 in
      let read_temp pred a =
        match Hashtbl.find_opt read_memo (pred, a) with
        | Some t -> t
        | None ->
            let t, record =
              if m a = '\002' then
                let t = fresh_temp a remat_inst.(a) in
                (t, (remat_tag.(a), t, Flat.none, unbiased a))
              else
                let t = fresh_temp a Tag.Bottom in
                (t, (Flat.Tag.reload, t, Flat.none, slot_of a))
            in
            Hashtbl.replace read_memo (pred, a) t;
            reads.(pred) <- record :: reads.(pred);
            t
      in
      Array.iteri
        (fun blk row ->
          phis.(blk) <-
            Array.of_list
              (List.filter_map
                 (fun (p : Flat.phi) ->
                   let d = p.Flat.dst in
                   if m d <> '\000' then begin
                     if m d = '\001' then begin
                       let dslot = slot_of d in
                       List.iter
                         (fun (pred, a) ->
                           let src =
                             match m a with
                             | '\002' -> W_remat a
                             | '\001' -> W_slot (slot_of a)
                             | _ -> W_reg a
                           in
                           writes.(pred) <- (dslot, src, a) :: writes.(pred))
                         p.Flat.args
                     end;
                     None
                   end
                   else
                     (* Each replaced argument moves to the front, as
                        {!Iloc.Phi.set_arg} orders it. *)
                     Some
                       {
                         p with
                         Flat.args =
                           List.fold_left
                             (fun args (pred, a) ->
                               if m a = '\000' then args
                               else
                                 (pred, read_temp pred a)
                                 :: List.remove_assoc pred args)
                             p.Flat.args p.Flat.args;
                       })
                 (Array.to_list row)))
        phis;
      (* Sequentialize one edge's memory-φ stores: a write's source slot can
         itself be a destination on the same edge (two spilled φs trading
         values around a back edge), so a write is ready when no pending
         write still reads its destination slot, and a stuck state is a
         cycle, broken by reloading one source into a temporary first. *)
      let order_writes ws =
        let out = ref [] in
        let emit r = out := r :: !out in
        let store t d = emit (Flat.Tag.spill, Flat.none, t, d) in
        let rec go pending =
          if pending <> [] then begin
            let reads_slot d =
              List.exists
                (fun (_, src, _) -> match src with W_slot s -> s = d | _ -> false)
                pending
            in
            match List.partition (fun (d, _, _) -> not (reads_slot d)) pending with
            | (_ :: _ as ready), blocked ->
                List.iter
                  (fun (d, src, a) ->
                    match src with
                    | W_reg r -> store r d
                    | W_slot s ->
                        let t = fresh_temp a Tag.Bottom in
                        emit (Flat.Tag.reload, t, Flat.none, s);
                        store t d
                    | W_remat v ->
                        let t = fresh_temp a remat_inst.(v) in
                        emit (remat_tag.(v), t, Flat.none, unbiased v);
                        store t d)
                  ready;
                go blocked
            | [], (d, W_slot s, a) :: rest ->
                let t = fresh_temp a Tag.Bottom in
                emit (Flat.Tag.reload, t, Flat.none, s);
                go ((d, W_reg t, a) :: rest)
            | [], _ -> assert false
          end
        in
        go ws;
        List.rev !out
      in
      Array.init nb (fun pred ->
          match (reads.(pred), writes.(pred)) with
          | [], [] -> []
          | rs, ws ->
              (* φ-block predecessors are non-critical by construction:
                 exactly one successor, so end-of-block placement is
                 edge placement. *)
              assert (fl.Flat.succ_idx.(pred + 1) - fl.Flat.succ_idx.(pred) = 1);
              List.rev_append rs (order_writes (List.rev ws)))
    end
  in
  let code = fl.Flat.code in
  (* Scratch for the ≤3 distinct spilled uses of one record and their
     replacement temporaries. *)
  let us = Array.make 3 0 and ts = Array.make 3 0 in
  let rewrite slot =
    let o = slot * Flat.stride in
    let tg = Array.unsafe_get code (o + Flat.f_tag) in
    let d = Array.unsafe_get code (o + Flat.f_dst) in
    let s0 = Array.unsafe_get code (o + Flat.f_s0) in
    let s1 = Array.unsafe_get code (o + Flat.f_s1) in
    let s2 = Array.unsafe_get code (o + Flat.f_s2) in
    if m d = '\002' then begin
      (* The whole definition is recomputable at each use; by tag
         soundness it must be a never-killed instruction or a copy, both
         side-effect free, so it is simply deleted. *)
      assert (Flat.Tag.never_killed tg || Flat.Tag.is_copy tg);
      note_remat d
    end
    else if Flat.Tag.is_copy tg && m s0 = '\002' then begin
      (* Chaitin's refinement (§3): an uncoalesced copy of a
         never-killed value is eliminated by recomputing directly into
         the desired register. *)
      note_remat s0;
      if m d = '\001' then begin
        note_mem d;
        let t = fresh_temp d Tag.Bottom in
        Flat.Splice.emit b ~tag:remat_tag.(s0) ~dst:t ~s0:(-1) ~s1:(-1)
          ~s2:(-1) ~ex:ex.(s0);
        Flat.Splice.emit b ~tag:Flat.Tag.spill ~dst:(-1) ~s0:t ~s1:(-1)
          ~s2:(-1) ~ex:(slot_of d)
      end
      else
        Flat.Splice.emit b ~tag:remat_tag.(s0) ~dst:d ~s0:(-1) ~s1:(-1)
          ~s2:(-1) ~ex:ex.(s0)
    end
    else begin
      (* Distinct spilled uses in ascending packed order, which fixes
         both temporary numbering and slot assignment. *)
      let nu = ref 0 in
      let add_use p =
        if m p <> '\000' then begin
          let i = ref 0 in
          while !i < !nu && us.(!i) < p do
            incr i
          done;
          if !i = !nu || us.(!i) <> p then begin
            for j = !nu downto !i + 1 do
              us.(j) <- us.(j - 1)
            done;
            us.(!i) <- p;
            incr nu
          end
        end
      in
      if s0 >= 0 then add_use s0;
      if s1 >= 0 then add_use s1;
      if s2 >= 0 then add_use s2;
      if !nu = 0 && m d <> '\001' then Flat.Splice.emit_slot b slot
      else begin
        for i = 0 to !nu - 1 do
          let u = us.(i) in
          if m u = '\002' then begin
            note_remat u;
            let t = fresh_temp u remat_inst.(u) in
            ts.(i) <- t;
            Flat.Splice.emit b ~tag:remat_tag.(u) ~dst:t ~s0:(-1) ~s1:(-1)
              ~s2:(-1) ~ex:ex.(u)
          end
          else begin
            note_mem u;
            let t = fresh_temp u Tag.Bottom in
            ts.(i) <- t;
            Flat.Splice.emit b ~tag:Flat.Tag.reload ~dst:t ~s0:(-1) ~s1:(-1)
              ~s2:(-1) ~ex:(slot_of u + !fault_reload_skew)
          end
        done;
        let sub p =
          let r = ref p in
          for i = 0 to !nu - 1 do
            if us.(i) = p then r := ts.(i)
          done;
          !r
        in
        if m d = '\001' then begin
          note_mem d;
          let t = fresh_temp d Tag.Bottom in
          Flat.Splice.emit b ~tag:tg ~dst:t ~s0:(sub s0) ~s1:(sub s1)
            ~s2:(sub s2)
            ~ex:(Array.unsafe_get code (o + Flat.f_ex));
          Flat.Splice.emit b ~tag:Flat.Tag.spill ~dst:(-1) ~s0:t ~s1:(-1)
            ~s2:(-1) ~ex:(slot_of d)
        end
        else Flat.Splice.emit_slot_subst b slot ~s0:(sub s0) ~s1:(sub s1)
               ~s2:(sub s2)
      end
    end
  in
  for blk = 0 to nb - 1 do
    let term = Flat.block_term fl blk in
    for slot = Flat.block_first fl blk to term - 1 do
      rewrite slot
    done;
    if blk < Array.length edge_code then
      List.iter
        (fun (tag, dst, s0, ex) ->
          Flat.Splice.emit b ~tag ~dst ~s0 ~s1:(-1) ~s2:(-1) ~ex)
        edge_code.(blk);
    (* The terminator only uses registers (never defines), so its
       reloads land just before it and nothing follows it. *)
    rewrite term;
    Flat.Splice.close_block b
  done;
  if !new_slots > 0 then
    List.iter
      (fun r ->
        let p = Flat.packed_of_reg r in
        if m p = '\001' && ex.(p) >= 0 then
          Reg.Tbl.replace slots r ex.(p))
      spilled;
  ( { remat_lrs = !n_remat; memory_lrs = !n_mem; new_slots = !new_slots },
    Flat.Splice.finish b ~supply_last:!supply )
