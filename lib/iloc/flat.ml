(* Flat, arena-backed routine form.

   One routine's instruction stream lives in a single [int array], six
   ints per instruction (see {!stride} and the field offsets below), so a
   sweep over a million instructions touches one contiguous buffer
   instead of chasing a million boxed [Instr.t] records through list
   spines.  Registers are packed as [2*id + class_bit]; [-1] marks an
   absent operand.  Everything an opcode carries beyond its register
   tuple — immediates, float constants, symbol names, branch targets —
   is either stored directly in the [ex] field or interned in a side
   pool indexed by [ex].

   The form is a faithful, lossless encoding of a non-SSA {!Cfg.t}:
   [to_routine (of_routine cfg)] is structurally equal to [cfg] (tested
   by QCheck round-trips).  Hot allocator phases (liveness,
   interference construction, spill-code insertion) run natively on the
   flat form; everything else — parser, printer, validator, tests —
   keeps using the structured view through the bridge. *)

let stride = 6

(* Field offsets within one record. *)
let f_tag = 0
let f_dst = 1
let f_s0 = 2
let f_s1 = 3
let f_s2 = 4
let f_ex = 5

let none = -1

(* Packed registers: [2*id + bit], bit 0 = Int, 1 = Float — the same
   packing as [Reg.hash], so packed order coincides with [Reg.compare]
   order (id major, Int before Float). *)
let packed_of_reg (r : Reg.t) =
  (2 * r.Reg.id) + (match r.Reg.cls with Reg.Int -> 0 | Reg.Float -> 1)

let reg_of_packed p =
  Reg.make (p lsr 1) (if p land 1 = 0 then Reg.Int else Reg.Float)

module Tag = struct
  (* One tag per [Instr.op] constructor, in declaration order.  The
     numeric ranges below (never-killed prefix, terminator run) are load
     bearing — keep them contiguous if opcodes are ever added. *)
  let ldi = 0
  let lfi = 1
  let laddr = 2
  let lfp = 3
  let ldro = 4
  let add = 5
  let sub = 6
  let mul = 7
  let div = 8
  let rem = 9
  let cmp = 10
  let addi = 11
  let subi = 12
  let muli = 13
  let fadd = 14
  let fsub = 15
  let fmul = 16
  let fdiv = 17
  let fcmp = 18
  let fneg = 19
  let fabs = 20
  let itof = 21
  let ftoi = 22
  let copy = 23
  let load = 24
  let loadx = 25
  let loadi = 26
  let store = 27
  let storex = 28
  let storei = 29
  let spill = 30
  let reload = 31
  let jmp = 32
  let cbr = 33
  let ret = 34
  let print = 35
  let nop = 36

  let never_killed t = t <= ldro
  let is_copy t = t = copy
end

let rel_code : Instr.rel -> int = function
  | Instr.Eq -> 0
  | Instr.Ne -> 1
  | Instr.Lt -> 2
  | Instr.Le -> 3
  | Instr.Gt -> 4
  | Instr.Ge -> 5

let rel_of_code : int -> Instr.rel = function
  | 0 -> Instr.Eq
  | 1 -> Instr.Ne
  | 2 -> Instr.Lt
  | 3 -> Instr.Le
  | 4 -> Instr.Gt
  | 5 -> Instr.Ge
  | _ -> invalid_arg "Flat.rel_of_code"

type t = {
  name : string;
  entry : int;
  symbols : Symbol.t list;
  labels : string array;  (* per block, by block id *)
  block_start : int array;
      (* length nb+1, in slots; block b's records occupy slots
         [block_start.(b), block_start.(b+1)); the last one is the
         terminator *)
  code : int array;  (* stride ints per instruction *)
  floats : float array;  (* Lfi pool, interned by bit pattern *)
  syms : string array;  (* Laddr/Ldro symbol-name pool *)
  aux : int array;
      (* operand overflow pool: [sym_idx; off] pairs for Laddr/Ldro,
         [target1; target2] block-id pairs for Cbr *)
  succ_idx : int array;  (* CSR successor lists over block ids, *)
  succ : int array;  (* ascending, deduplicated *)
  pred_idx : int array;  (* CSR predecessors, ascending block order *)
  pred : int array;
  supply_last : int;  (* register supply watermark of the source CFG *)
}

type phi = { dst : int; args : (int * int) list }

let n_blocks t = Array.length t.labels
let n_instrs t = Array.length t.code / stride
let block_first t b = t.block_start.(b)
let block_term t b = t.block_start.(b + 1) - 1

let tag t slot = t.code.((slot * stride) + f_tag)
let dst t slot = t.code.((slot * stride) + f_dst)
let src t slot i = t.code.((slot * stride) + f_s0 + i)

let succs_list t b =
  let acc = ref [] in
  for i = t.succ_idx.(b + 1) - 1 downto t.succ_idx.(b) do
    acc := t.succ.(i) :: !acc
  done;
  !acc

let preds_list t b =
  let acc = ref [] in
  for i = t.pred_idx.(b + 1) - 1 downto t.pred_idx.(b) do
    acc := t.pred.(i) :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let of_routine (cfg : Cfg.t) =
  if Cfg.in_ssa cfg then invalid_arg "Flat.of_routine: routine is in SSA";
  let nb = Cfg.n_blocks cfg in
  (* Slot layout: one record per body instruction plus the terminator. *)
  let block_start = Array.make (nb + 1) 0 in
  let n = ref 0 in
  for b = 0 to nb - 1 do
    block_start.(b) <- !n;
    n := !n + 1 + List.length (Cfg.block cfg b).Block.body
  done;
  block_start.(nb) <- !n;
  let code = Array.make (!n * stride) none in
  (* Interning pools.  Small by construction: one float per distinct
     immediate, one string per referenced symbol. *)
  let float_tbl : (int64, int) Hashtbl.t = Hashtbl.create 16 in
  let floats = ref [] and n_floats = ref 0 in
  let intern_float x =
    let bits = Int64.bits_of_float x in
    match Hashtbl.find_opt float_tbl bits with
    | Some i -> i
    | None ->
        let i = !n_floats in
        Hashtbl.add float_tbl bits i;
        floats := x :: !floats;
        incr n_floats;
        i
  in
  let sym_tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let syms = ref [] and n_syms = ref 0 in
  let intern_sym s =
    match Hashtbl.find_opt sym_tbl s with
    | Some i -> i
    | None ->
        let i = !n_syms in
        Hashtbl.add sym_tbl s i;
        syms := s :: !syms;
        incr n_syms;
        i
  in
  let aux = ref [] and n_aux = ref 0 in
  let aux_pair a b =
    let i = !n_aux in
    aux := b :: a :: !aux;
    n_aux := !n_aux + 2;
    i
  in
  let label_tbl : (string, int) Hashtbl.t = Hashtbl.create (2 * nb) in
  Cfg.iter_blocks
    (fun b -> Hashtbl.replace label_tbl b.Block.label b.Block.id)
    cfg;
  let target l =
    match Hashtbl.find_opt label_tbl l with
    | Some b -> b
    | None -> invalid_arg (Printf.sprintf "Flat.of_routine: dangling label %s" l)
  in
  let encode_op : Instr.op -> int * int = function
    | Instr.Ldi k -> (Tag.ldi, k)
    | Instr.Lfi x -> (Tag.lfi, intern_float x)
    | Instr.Laddr (s, off) -> (Tag.laddr, aux_pair (intern_sym s) off)
    | Instr.Lfp off -> (Tag.lfp, off)
    | Instr.Ldro (s, off) -> (Tag.ldro, aux_pair (intern_sym s) off)
    | Instr.Add -> (Tag.add, 0)
    | Instr.Sub -> (Tag.sub, 0)
    | Instr.Mul -> (Tag.mul, 0)
    | Instr.Div -> (Tag.div, 0)
    | Instr.Rem -> (Tag.rem, 0)
    | Instr.Cmp r -> (Tag.cmp, rel_code r)
    | Instr.Addi k -> (Tag.addi, k)
    | Instr.Subi k -> (Tag.subi, k)
    | Instr.Muli k -> (Tag.muli, k)
    | Instr.Fadd -> (Tag.fadd, 0)
    | Instr.Fsub -> (Tag.fsub, 0)
    | Instr.Fmul -> (Tag.fmul, 0)
    | Instr.Fdiv -> (Tag.fdiv, 0)
    | Instr.Fcmp r -> (Tag.fcmp, rel_code r)
    | Instr.Fneg -> (Tag.fneg, 0)
    | Instr.Fabs -> (Tag.fabs, 0)
    | Instr.Itof -> (Tag.itof, 0)
    | Instr.Ftoi -> (Tag.ftoi, 0)
    | Instr.Copy -> (Tag.copy, 0)
    | Instr.Load -> (Tag.load, 0)
    | Instr.Loadx -> (Tag.loadx, 0)
    | Instr.Loadi off -> (Tag.loadi, off)
    | Instr.Store -> (Tag.store, 0)
    | Instr.Storex -> (Tag.storex, 0)
    | Instr.Storei off -> (Tag.storei, off)
    | Instr.Spill slot -> (Tag.spill, slot)
    | Instr.Reload slot -> (Tag.reload, slot)
    | Instr.Jmp l -> (Tag.jmp, target l)
    | Instr.Cbr (l1, l2) -> (Tag.cbr, aux_pair (target l1) (target l2))
    | Instr.Ret -> (Tag.ret, 0)
    | Instr.Print -> (Tag.print, 0)
    | Instr.Nop -> (Tag.nop, 0)
  in
  let emit slot (i : Instr.t) =
    let o = slot * stride in
    let t, e = encode_op i.Instr.op in
    code.(o + f_tag) <- t;
    code.(o + f_ex) <- e;
    (match i.Instr.dst with
    | Some d -> code.(o + f_dst) <- packed_of_reg d
    | None -> ());
    Array.iteri
      (fun k r -> code.(o + f_s0 + k) <- packed_of_reg r)
      i.Instr.srcs
  in
  let labels = Array.make nb "" in
  Cfg.iter_blocks
    (fun b ->
      labels.(b.Block.id) <- b.Block.label;
      let slot = ref block_start.(b.Block.id) in
      List.iter
        (fun i ->
          emit !slot i;
          incr slot)
        b.Block.body;
      emit !slot b.Block.term)
    cfg;
  (* CSR edges, same semantics as [Cfg.compute_edges]: successors
     deduplicated ascending, predecessors in ascending block order. *)
  let aux = Array.of_list (List.rev !aux) in
  let floats = Array.of_list (List.rev !floats) in
  let syms = Array.of_list (List.rev !syms) in
  let succ_lists = Array.make nb [] in
  let n_succ = ref 0 in
  for b = 0 to nb - 1 do
    let o = (block_start.(b + 1) - 1) * stride in
    let t = code.(o + f_tag) in
    let targets =
      if t = Tag.jmp then [ code.(o + f_ex) ]
      else if t = Tag.cbr then begin
        let p = code.(o + f_ex) in
        let t1 = aux.(p) and t2 = aux.(p + 1) in
        if t1 = t2 then [ t1 ] else if t1 < t2 then [ t1; t2 ] else [ t2; t1 ]
      end
      else []
    in
    succ_lists.(b) <- targets;
    n_succ := !n_succ + List.length targets
  done;
  let succ_idx = Array.make (nb + 1) 0 in
  let succ = Array.make !n_succ 0 in
  let pred_count = Array.make nb 0 in
  let k = ref 0 in
  for b = 0 to nb - 1 do
    succ_idx.(b) <- !k;
    List.iter
      (fun s ->
        succ.(!k) <- s;
        incr k;
        pred_count.(s) <- pred_count.(s) + 1)
      succ_lists.(b)
  done;
  succ_idx.(nb) <- !k;
  let pred_idx = Array.make (nb + 1) 0 in
  for b = 0 to nb - 1 do
    pred_idx.(b + 1) <- pred_idx.(b) + pred_count.(b)
  done;
  let pred = Array.make pred_idx.(nb) 0 in
  let fill = Array.copy pred_count in
  Array.fill fill 0 nb 0;
  for b = 0 to nb - 1 do
    List.iter
      (fun s ->
        pred.(pred_idx.(s) + fill.(s)) <- b;
        fill.(s) <- fill.(s) + 1)
      succ_lists.(b)
  done;
  {
    name = cfg.Cfg.name;
    entry = cfg.Cfg.entry;
    symbols = cfg.Cfg.symbols;
    labels;
    block_start;
    code;
    floats;
    syms;
    aux;
    succ_idx;
    succ;
    pred_idx;
    pred;
    supply_last = Reg.Supply.last cfg.Cfg.supply;
  }

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

let decode_op t slot : Instr.op =
  let o = slot * stride in
  let e = t.code.(o + f_ex) in
  let g = t.code.(o + f_tag) in
  if g = Tag.ldi then Instr.Ldi e
  else if g = Tag.lfi then Instr.Lfi t.floats.(e)
  else if g = Tag.laddr then Instr.Laddr (t.syms.(t.aux.(e)), t.aux.(e + 1))
  else if g = Tag.lfp then Instr.Lfp e
  else if g = Tag.ldro then Instr.Ldro (t.syms.(t.aux.(e)), t.aux.(e + 1))
  else if g = Tag.add then Instr.Add
  else if g = Tag.sub then Instr.Sub
  else if g = Tag.mul then Instr.Mul
  else if g = Tag.div then Instr.Div
  else if g = Tag.rem then Instr.Rem
  else if g = Tag.cmp then Instr.Cmp (rel_of_code e)
  else if g = Tag.addi then Instr.Addi e
  else if g = Tag.subi then Instr.Subi e
  else if g = Tag.muli then Instr.Muli e
  else if g = Tag.fadd then Instr.Fadd
  else if g = Tag.fsub then Instr.Fsub
  else if g = Tag.fmul then Instr.Fmul
  else if g = Tag.fdiv then Instr.Fdiv
  else if g = Tag.fcmp then Instr.Fcmp (rel_of_code e)
  else if g = Tag.fneg then Instr.Fneg
  else if g = Tag.fabs then Instr.Fabs
  else if g = Tag.itof then Instr.Itof
  else if g = Tag.ftoi then Instr.Ftoi
  else if g = Tag.copy then Instr.Copy
  else if g = Tag.load then Instr.Load
  else if g = Tag.loadx then Instr.Loadx
  else if g = Tag.loadi then Instr.Loadi e
  else if g = Tag.store then Instr.Store
  else if g = Tag.storex then Instr.Storex
  else if g = Tag.storei then Instr.Storei e
  else if g = Tag.spill then Instr.Spill e
  else if g = Tag.reload then Instr.Reload e
  else if g = Tag.jmp then Instr.Jmp t.labels.(e)
  else if g = Tag.cbr then
    Instr.Cbr (t.labels.(t.aux.(e)), t.labels.(t.aux.(e + 1)))
  else if g = Tag.ret then Instr.Ret
  else if g = Tag.print then Instr.Print
  else if g = Tag.nop then Instr.Nop
  else invalid_arg (Printf.sprintf "Flat.decode_op: bad tag %d" g)

let to_instr t slot : Instr.t =
  let o = slot * stride in
  let op = decode_op t slot in
  let d = t.code.(o + f_dst) in
  let dst = if d = none then None else Some (reg_of_packed d) in
  let n_srcs =
    if t.code.(o + f_s2) <> none then 3
    else if t.code.(o + f_s1) <> none then 2
    else if t.code.(o + f_s0) <> none then 1
    else 0
  in
  let srcs =
    Array.init n_srcs (fun k -> reg_of_packed t.code.(o + f_s0 + k))
  in
  (* Built directly rather than through [Instr.make]: records decoded
     from a well-formed arena are valid by construction, and [make]'s
     list-based arity checks would dominate decode time at scale. *)
  { Instr.op; dst; srcs }

let to_routine t =
  let nb = n_blocks t in
  let blocks =
    Array.init nb (fun b ->
        let first = block_first t b and term_slot = block_term t b in
        let body = ref [] in
        for slot = term_slot - 1 downto first do
          body := to_instr t slot :: !body
        done;
        {
          Block.id = b;
          label = t.labels.(b);
          phis = [];
          body = !body;
          term = to_instr t term_slot;
        })
  in
  {
    Cfg.name = t.name;
    blocks;
    entry = t.entry;
    symbols = t.symbols;
    supply = Reg.Supply.create ~start:t.supply_last ();
    succs = Array.init nb (succs_list t);
    preds = Array.init nb (preds_list t);
  }

(* ------------------------------------------------------------------ *)
(* Renaming                                                            *)

(* Two passes over the records: one counts the survivors, so the new
   code array is allocated once at its final size, the other writes
   them with their registers mapped.  Blocks, edges and pools are
   shared with the source ([ex] never names a register). *)
let rename t f =
  let map p = if p < 0 then p else f p in
  let kept slot =
    not (Tag.is_copy (tag t slot) && map (dst t slot) = map (src t slot 0))
  in
  let n = ref 0 in
  for slot = 0 to n_instrs t - 1 do
    if kept slot then incr n
  done;
  let code = Array.make (!n * stride) none in
  let block_start = Array.make (n_blocks t + 1) 0 in
  let w = ref 0 in
  for b = 0 to n_blocks t - 1 do
    for slot = block_first t b to block_term t b do
      if kept slot then begin
        let o = !w in
        Array.blit t.code (slot * stride) code o stride;
        for k = o + f_dst to o + f_s2 do
          code.(k) <- map code.(k)
        done;
        w := o + stride
      end
    done;
    block_start.(b + 1) <- !w / stride
  done;
  { t with code; block_start }

(* ------------------------------------------------------------------ *)
(* Splicing                                                            *)

module Splice = struct
  (* Rebuilds the code arena block by block.  Labels and blocks are
     shared with the source unconditionally — spill-code insertion never
     creates new blocks.  The constant pools usually survive unchanged
     too; they only grow when a rematerialization sequence needs a
     payload (a float immediate, a symbol, an address pair) whose pool
     entry is not already interned, so the pool state below stays in its
     cheap share-the-source configuration until the first such miss. *)
  type builder = {
    src : t;
    mutable buf : int array;
    mutable len : int;  (* in ints *)
    starts : int array;  (* block_start under construction *)
    mutable next_block : int;
    mutable floats : float array;  (* = src.floats until first growth *)
    mutable n_floats : int;
    mutable float_tbl : (int64, int) Hashtbl.t option;  (* lazy intern *)
    mutable syms : string array;
    mutable n_syms : int;
    mutable sym_tbl : (string, int) Hashtbl.t option;
    mutable aux : int array;
    mutable n_aux : int;
  }

  let create src =
    {
      src;
      (* Spill code roughly doubles a heavily-spilled block; start with
         modest slack and double on demand. *)
      buf = Array.make ((Array.length src.code * 3 / 2) + stride) 0;
      len = 0;
      starts = Array.make (n_blocks src + 1) 0;
      next_block = 0;
      floats = src.floats;
      n_floats = Array.length src.floats;
      float_tbl = None;
      syms = src.syms;
      n_syms = Array.length src.syms;
      sym_tbl = None;
      aux = src.aux;
      n_aux = Array.length src.aux;
    }

  let grow_slot arr n default =
    (* Append-ready copy with at least one free slot past [n]. *)
    let cap = max 4 (2 * max n (Array.length arr)) in
    let a = Array.make cap default in
    Array.blit arr 0 a 0 n;
    a

  let intern_float b x =
    let tbl =
      match b.float_tbl with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 16 in
          for i = 0 to b.n_floats - 1 do
            let bits = Int64.bits_of_float b.floats.(i) in
            if not (Hashtbl.mem tbl bits) then Hashtbl.add tbl bits i
          done;
          b.float_tbl <- Some tbl;
          tbl
    in
    let bits = Int64.bits_of_float x in
    match Hashtbl.find_opt tbl bits with
    | Some i -> i
    | None ->
        if b.n_floats = Array.length b.floats || b.floats == b.src.floats
        then b.floats <- grow_slot b.floats b.n_floats 0.0;
        let i = b.n_floats in
        b.floats.(i) <- x;
        b.n_floats <- i + 1;
        Hashtbl.add tbl bits i;
        i

  let intern_sym b s =
    let tbl =
      match b.sym_tbl with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 16 in
          for i = 0 to b.n_syms - 1 do
            if not (Hashtbl.mem tbl b.syms.(i)) then Hashtbl.add tbl b.syms.(i) i
          done;
          b.sym_tbl <- Some tbl;
          tbl
    in
    match Hashtbl.find_opt tbl s with
    | Some i -> i
    | None ->
        if b.n_syms = Array.length b.syms || b.syms == b.src.syms then
          b.syms <- grow_slot b.syms b.n_syms "";
        let i = b.n_syms in
        b.syms.(i) <- s;
        b.n_syms <- i + 1;
        Hashtbl.add tbl s i;
        i

  let emit_pair b v0 v1 =
    if b.n_aux + 2 > Array.length b.aux || b.aux == b.src.aux then
      b.aux <- grow_slot b.aux b.n_aux 0;
    let i = b.n_aux in
    b.aux.(i) <- v0;
    b.aux.(i + 1) <- v1;
    b.n_aux <- i + 2;
    i

  let reserve b n =
    if b.len + n > Array.length b.buf then begin
      let cap = ref (2 * Array.length b.buf) in
      while b.len + n > !cap do
        cap := 2 * !cap
      done;
      let buf = Array.make !cap 0 in
      Array.blit b.buf 0 buf 0 b.len;
      b.buf <- buf
    end

  let emit b ~tag ~dst ~s0 ~s1 ~s2 ~ex =
    reserve b stride;
    let o = b.len in
    b.buf.(o + f_tag) <- tag;
    b.buf.(o + f_dst) <- dst;
    b.buf.(o + f_s0) <- s0;
    b.buf.(o + f_s1) <- s1;
    b.buf.(o + f_s2) <- s2;
    b.buf.(o + f_ex) <- ex;
    b.len <- b.len + stride

  (* Copy slot [slot] of the source arena verbatim. *)
  let emit_slot b slot =
    reserve b stride;
    Array.blit b.src.code (slot * stride) b.buf b.len stride;
    b.len <- b.len + stride

  (* Copy slot [slot] with its sources replaced. *)
  let emit_slot_subst b slot ~s0 ~s1 ~s2 =
    reserve b stride;
    let o = b.len and so = slot * stride in
    b.buf.(o + f_tag) <- b.src.code.(so + f_tag);
    b.buf.(o + f_dst) <- b.src.code.(so + f_dst);
    b.buf.(o + f_s0) <- s0;
    b.buf.(o + f_s1) <- s1;
    b.buf.(o + f_s2) <- s2;
    b.buf.(o + f_ex) <- b.src.code.(so + f_ex);
    b.len <- b.len + stride

  let close_block b =
    b.next_block <- b.next_block + 1;
    b.starts.(b.next_block) <- b.len / stride

  let finish b ~supply_last =
    if b.next_block <> n_blocks b.src then
      invalid_arg "Flat.Splice.finish: not all blocks closed";
    let pool arr n src = if arr == src then src else Array.sub arr 0 n in
    {
      b.src with
      code = Array.sub b.buf 0 b.len;
      block_start = Array.copy b.starts;
      floats = pool b.floats b.n_floats b.src.floats;
      syms = pool b.syms b.n_syms b.src.syms;
      aux = pool b.aux b.n_aux b.src.aux;
      supply_last;
    }
end
