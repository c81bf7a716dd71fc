module Cfg = Iloc.Cfg
module Block = Iloc.Block
module Instr = Iloc.Instr
module Reg = Iloc.Reg

exception Too_few_registers of string

type result = {
  cfg : Iloc.Cfg.t;
  slots_used : int;
  loads_inserted : int;
  stores_inserted : int;
}

(* Per-class allocation state within one block. *)
type class_state = {
  k : int;
  cls : Reg.cls;
  preg_holds : Reg.t option array;  (** physical register -> virtual *)
  mutable vreg_in : (Reg.t * int) list;  (** virtual -> physical index *)
  dirty : bool array;
}

let run ?(machine = Machine.standard) (input : Cfg.t) =
  (match Iloc.Validate.routine input with
  | Ok () -> ()
  | Error es ->
      invalid_arg
        (Printf.sprintf "Local_allocator.run: invalid input: %s"
           (String.concat "; "
              (List.map Iloc.Validate.error_to_string es))));
  if machine.Machine.k_int < 4 || machine.Machine.k_float < 2 then
    raise
      (Too_few_registers
         (Printf.sprintf "local allocation needs >= 4 int / 2 float, got %d/%d"
            machine.Machine.k_int machine.Machine.k_float));
  let cfg = Cfg.copy input in
  let fl = Iloc.Flat.of_routine cfg in
  let live =
    Dataflow.Liveness.compute fl ~order:(Dataflow.Order.postorder_flat fl)
      ~phis:[||]
  in
  let slots : int Reg.Tbl.t = Reg.Tbl.create 64 in
  let next_slot = ref 0 in
  let loads_inserted = ref 0 and stores_inserted = ref 0 in
  let slot_of v =
    match Reg.Tbl.find_opt slots v with
    | Some s -> s
    | None ->
        let s = !next_slot in
        incr next_slot;
        Reg.Tbl.replace slots v s;
        s
  in
  Cfg.iter_blocks
    (fun b ->
      (* Occurrence positions for the furthest-next-use heuristic. *)
      let instrs = Array.of_list (Block.instrs b) in
      let n = Array.length instrs in
      let next_use_after pos v =
        let rec go i =
          if i >= n then max_int
          else if
            List.exists (Reg.equal v) (Instr.uses instrs.(i))
          then i
          else go (i + 1)
        in
        go (pos + 1)
      in
      let mk_state cls k =
        {
          k;
          cls;
          preg_holds = Array.make k None;
          vreg_in = [];
          dirty = Array.make k false;
        }
      in
      let ints = mk_state Reg.Int machine.Machine.k_int in
      let floats = mk_state Reg.Float machine.Machine.k_float in
      let state_for v = if Reg.is_int v then ints else floats in
      let out = ref [] in
      let emit i = out := i :: !out in
      let phys st i = Reg.make i st.cls in
      let store_back st i =
        match st.preg_holds.(i) with
        | Some v when st.dirty.(i) ->
            emit (Instr.spill (phys st i) (slot_of v));
            incr stores_inserted;
            st.dirty.(i) <- false
        | _ -> ()
      in
      let evict st i =
        store_back st i;
        (match st.preg_holds.(i) with
        | Some v -> st.vreg_in <- List.remove_assoc v st.vreg_in
        | None -> ());
        st.preg_holds.(i) <- None
      in
      (* Choose a victim register: prefer a free one, then the value with
         the furthest next use in this block (clean before dirty on
         ties). *)
      let choose st ~pos ~pinned =
        let free = ref None in
        for i = st.k - 1 downto 0 do
          if Option.is_none st.preg_holds.(i) && not (List.memq i pinned) then
            free := Some i
        done;
        match !free with
        | Some i -> i
        | None ->
            let best = ref (-1) in
            let best_score = ref (-1) in
            for i = 0 to st.k - 1 do
              if not (List.memq i pinned) then begin
                let v = Option.get st.preg_holds.(i) in
                let dist = min (next_use_after pos v) 1_000_000 in
                let score =
                  (2 * dist) + (if st.dirty.(i) then 0 else 1)
                in
                if score > !best_score then begin
                  best_score := score;
                  best := i
                end
              end
            done;
            if !best < 0 then
              raise
                (Too_few_registers
                   (Printf.sprintf "%s: block %s pins every register"
                      cfg.Cfg.name b.Block.label));
            evict st !best;
            !best
      in
      let ensure_in ~pos ~pinned v =
        let st = state_for v in
        match List.assoc_opt v st.vreg_in with
        | Some i -> i
        | None ->
            let i = choose st ~pos ~pinned in
            emit (Instr.reload (phys st i) (slot_of v));
            incr loads_inserted;
            st.preg_holds.(i) <- Some v;
            st.vreg_in <- (v, i) :: st.vreg_in;
            st.dirty.(i) <- false;
            i
      in
      let flush_live_out () =
        List.iter
          (fun st ->
            for i = 0 to st.k - 1 do
              match st.preg_holds.(i) with
              | Some v
                when st.dirty.(i)
                     && Dataflow.Liveness.live_out_mem live b.Block.id v ->
                  store_back st i
              | _ -> ()
            done)
          [ ints; floats ]
      in
      let rewrite pos (i : Instr.t) =
        (* Bring every use into a register; pins prevent an instruction's
           own operands from evicting each other. *)
        let pinned_ints = ref [] and pinned_floats = ref [] in
        let pin v idx =
          if Reg.is_int v then pinned_ints := idx :: !pinned_ints
          else pinned_floats := idx :: !pinned_floats
        in
        let use_assignment =
          List.map
            (fun u ->
              let idx =
                ensure_in ~pos
                  ~pinned:(if Reg.is_int u then !pinned_ints else !pinned_floats)
                  u
              in
              pin u idx;
              (u, idx))
            (List.sort_uniq Reg.compare (Instr.uses i))
        in
        let subst u =
          let st = state_for u in
          phys st (List.assoc u use_assignment)
        in
        let i' = { i with Instr.srcs = Array.map subst i.Instr.srcs } in
        match i.Instr.dst with
        | None -> emit i'
        | Some d ->
            let st = state_for d in
            (* If d already occupies a register, write there; else pick a
               victim (operands pinned). *)
            let idx =
              match List.assoc_opt d st.vreg_in with
              | Some idx -> idx
              | None ->
                  let idx =
                    choose st ~pos
                      ~pinned:
                        (if Reg.is_int d then !pinned_ints else !pinned_floats)
                  in
                  st.preg_holds.(idx) <- Some d;
                  st.vreg_in <- (d, idx) :: st.vreg_in;
                  idx
            in
            st.dirty.(idx) <- true;
            emit { i' with Instr.dst = Some (phys st idx) }
      in
      Array.iteri
        (fun pos i ->
          if Instr.is_terminator i then begin
            (* reloads for the terminator first, then flush, then branch *)
            let i' =
              let pinned = ref [] in
              let use_assignment =
                List.map
                  (fun u ->
                    let idx = ensure_in ~pos ~pinned:!pinned u in
                    pinned := idx :: !pinned;
                    (u, idx))
                  (List.sort_uniq Reg.compare (Instr.uses i))
              in
              {
                i with
                Instr.srcs =
                  Array.map
                    (fun u -> phys (state_for u) (List.assoc u use_assignment))
                    i.Instr.srcs;
              }
            in
            flush_live_out ();
            emit i'
          end
          else rewrite pos i)
        instrs;
      match List.rev !out with
      | [] -> assert false
      | rev ->
          let rec split_last acc = function
            | [ t ] -> (List.rev acc, t)
            | x :: rest -> split_last (x :: acc) rest
            | [] -> assert false
          in
          let body, term = split_last [] rev in
          b.Block.body <- body;
          b.Block.term <- term)
    cfg;
  { cfg; slots_used = !next_slot; loads_inserted = !loads_inserted;
    stores_inserted = !stores_inserted }
