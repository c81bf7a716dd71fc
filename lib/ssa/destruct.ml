module Cfg = Iloc.Cfg
module Block = Iloc.Block
module Instr = Iloc.Instr
module Phi = Iloc.Phi
module Reg = Iloc.Reg

(* Test-only planted fault (see mli).  Read at the start of each
   [run_colored]; never written by library code. *)
let fault_swap_seq = ref 0

type colored_stats = {
  coalesced : int;
  cycle_temps : int;
  cycle_slots : int;
}

let run_colored ~temp_for ~fresh_slot (cfg : Cfg.t) =
  let coalesced = ref 0 and cycle_temps = ref 0 and cycle_slots = ref 0 in
  let fault_pending = ref (!fault_swap_seq > 0) in
  let moves_per_pred = Hashtbl.create 16 in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun (p : Phi.t) ->
          List.iter
            (fun (pred, arg) ->
              if List.length (Cfg.succs cfg pred) > 1 then
                invalid_arg
                  (Printf.sprintf
                     "Ssa.Destruct.run_colored: critical edge B%d -> B%d" pred
                     b.id);
              let old =
                Option.value (Hashtbl.find_opt moves_per_pred pred) ~default:[]
              in
              Hashtbl.replace moves_per_pred pred ((p.dst, arg) :: old))
            p.args)
        b.phis;
      b.phis <- [])
    cfg;
  (* Ascending predecessor order: emission per edge is independent, but
     slot numbering and the planted fault's "first sequence" must not
     depend on hash-table iteration order. *)
  let preds =
    Hashtbl.fold (fun p _ acc -> p :: acc) moves_per_pred []
    |> List.sort Int.compare
  in
  List.iter
    (fun pred ->
      let moves = List.rev (Hashtbl.find moves_per_pred pred) in
      let moves =
        List.filter
          (fun (d, s) ->
            if Reg.equal d s then begin
              incr coalesced;
              false
            end
            else true)
          moves
      in
      if moves <> [] then begin
        (* A cycle's scratch is a color that is dead across this edge;
           when the class has none free, a fresh virtual register stands
           in and is lowered to a spill slot below.  Sequentialization
           resolves each broken cycle completely before breaking the
           next, so a scratch is never live across two cycles. *)
        let slot_of_temp = Hashtbl.create 4 in
        let temp cls =
          match temp_for ~pred cls with
          | Some r ->
              incr cycle_temps;
              r
          | None ->
              incr cycle_slots;
              let t = Cfg.fresh_reg cfg cls in
              Hashtbl.replace slot_of_temp t (fresh_slot ());
              t
        in
        let seq = Parallel_copy.sequentialize moves ~temp in
        let instrs =
          List.map
            (fun (d, s) ->
              match
                (Hashtbl.find_opt slot_of_temp d, Hashtbl.find_opt slot_of_temp s)
              with
              | Some slot, None -> Instr.spill s slot
              | None, Some slot -> Instr.reload d slot
              | None, None -> Instr.copy d s
              | Some _, Some _ -> assert false)
            seq
        in
        let instrs =
          if !fault_pending then begin
            (* Swap the first adjacent *dependent* pair at or after the
               requested position: swapping two independent moves is a
               semantic no-op, so the planted miscompile would silently
               vanish.  Dependence is through a register (one writes
               what the other reads or writes) or a frame slot. *)
            let arr = Array.of_list instrs in
            let slot (i : Instr.t) =
              match i.Instr.op with
              | Instr.Spill s | Instr.Reload s -> Some s
              | _ -> None
            in
            let dependent i =
              let a = arr.(i) and b = arr.(i + 1) in
              let inter xs ys =
                List.exists (fun x -> List.exists (Reg.equal x) ys) xs
              in
              inter (Instr.defs a) (Instr.uses b)
              || inter (Instr.uses a) (Instr.defs b)
              || inter (Instr.defs a) (Instr.defs b)
              || (match (slot a, slot b) with
                 | Some x, Some y -> x = y
                 | _ -> false)
            in
            let start = max 0 (!fault_swap_seq - 1) in
            let rec find i =
              if i + 1 >= Array.length arr then None
              else if i >= start && dependent i then Some i
              else find (i + 1)
            in
            match find 0 with
            | Some i ->
                fault_pending := false;
                let t = arr.(i) in
                arr.(i) <- arr.(i + 1);
                arr.(i + 1) <- t;
                Array.to_list arr
            | None -> instrs
          end
          else instrs
        in
        Block.append_before_term (Cfg.block cfg pred) instrs
      end)
    preds;
  { coalesced = !coalesced; cycle_temps = !cycle_temps; cycle_slots = !cycle_slots }

(* The value-level form: a fresh virtual register is every cycle's
   scratch, so no slot is ever asked for. *)
let run (cfg : Cfg.t) =
  let cfg = Cfg.copy cfg in
  ignore
    (run_colored cfg
       ~temp_for:(fun ~pred:_ cls -> Some (Cfg.fresh_reg cfg cls))
       ~fresh_slot:(fun () -> invalid_arg "Ssa.Destruct.run: no slot needed"));
  cfg
