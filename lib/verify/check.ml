open Iloc

type report = {
  blocks_checked : int;
  instrs_matched : int;
  uses_checked : int;
  remats_checked : int;
  copies_skipped : int;
  fixpoint_visits : int;
}

let report_to_string r =
  Printf.sprintf
    "%d blocks, %d instructions matched, %d uses proved, %d remats, %d moves"
    r.blocks_checked r.instrs_matched r.uses_checked r.remats_checked
    r.copies_skipped

type stats = {
  mutable blocks : int;
  mutable matched : int;
  mutable uses : int;
  mutable remats : int;
  mutable moves : int;
}

let fresh_stats () = { blocks = 0; matched = 0; uses = 0; remats = 0; moves = 0 }

(* ------------------------------------------------------------------ *)
(* Instruction classification.                                         *)

(* Source instructions the allocator may delete: coalesced copies and
   never-killed definitions replaced by rematerialization. *)
let input_skippable (i : Instr.t) =
  match i.op with Instr.Copy -> true | op -> Instr.never_killed op

(* Output instructions the allocator may insert. *)
let output_skippable (i : Instr.t) =
  match i.op with
  | Instr.Copy | Instr.Spill _ | Instr.Reload _ -> true
  | op -> Instr.never_killed op

let apply_input_skip w (i : Instr.t) =
  match (i.op, i.dst) with
  | Instr.Copy, Some d ->
      State.input_copy w ~dst:(State.vreg w d) ~src:(State.vreg w i.srcs.(0))
  | op, Some d when Instr.never_killed op ->
      State.input_const w ~vreg:(State.vreg w d) ~op:(State.op w op)
  | _ -> ()

let apply_output_skip stats w (i : Instr.t) =
  match (i.op, i.dst) with
  | Instr.Copy, Some d ->
      stats.moves <- stats.moves + 1;
      State.loc_copy w ~src:(State.reg_loc w i.srcs.(0)) ~dst:(State.reg_loc w d)
  | Instr.Spill slot, None ->
      stats.moves <- stats.moves + 1;
      State.loc_copy w ~src:(State.reg_loc w i.srcs.(0))
        ~dst:(State.slot_loc w slot)
  | Instr.Reload slot, Some d ->
      stats.moves <- stats.moves + 1;
      State.loc_copy w ~src:(State.slot_loc w slot) ~dst:(State.reg_loc w d)
  | op, Some d when Instr.never_killed op ->
      stats.remats <- stats.remats + 1;
      State.remat w ~loc:(State.reg_loc w d) ~op:(State.op w op)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The lockstep walk over one anchored block pair.                     *)

type ctx = {
  w : State.work;
  name : string;
  emit : Error.t -> unit;
  stats : stats;
  is_input_label : string -> bool;
  out_block : string -> Block.t option;
}

let check_uses ctx ~label ~index (vin : Instr.t) (vout : Instr.t) =
  Array.iteri
    (fun i p ->
      let v = vin.Instr.srcs.(i) in
      ctx.stats.uses <- ctx.stats.uses + 1;
      if not (State.holds ctx.w (State.vreg ctx.w v) (State.reg_loc ctx.w p))
      then
        ctx.emit
          (Error.instr_err ctx.name ~label ~index Error.Wrong_value
             (Printf.sprintf
                "`%s`: operand %d must carry the value of source register \
                 %s, but %s cannot be proved to hold it"
                (Instr.to_string vout) i (Reg.to_string v) (Reg.to_string p))))
    vout.Instr.srcs

let kill_out_def w (o : Instr.t) =
  match o.Instr.dst with
  | Some pd -> State.kill_loc w (State.reg_loc w pd)
  | None -> ()

let kill_in_def w (i : Instr.t) =
  match i.Instr.dst with
  | Some vd -> State.kill_vreg w (State.vreg w vd)
  | None -> ()

(* Walk the two bodies.  Source-side skippables are folded first: a
   coalesced copy or a tag-recording never-killed definition commutes
   with any inserted output code, and folding it eagerly only adds
   facts the later checks may rely on. *)
let walk_bodies ctx ~label (ib : Block.t) (ob : Block.t) =
  let w = ctx.w in
  let rec go ins outs index =
    match (ins, outs) with
    | i :: ins', _ when input_skippable i ->
        ctx.stats.moves <- ctx.stats.moves + 1;
        apply_input_skip w i;
        go ins' outs index
    | _, o :: outs' when output_skippable o ->
        apply_output_skip ctx.stats w o;
        go ins outs' (index + 1)
    | i :: ins', o :: outs' ->
        if i.Instr.op = o.Instr.op then (
          check_uses ctx ~label ~index i o;
          ctx.stats.matched <- ctx.stats.matched + 1;
          (match (i.Instr.dst, o.Instr.dst) with
          | Some vd, Some pd ->
              State.bind_def w ~vreg:(State.vreg w vd) ~loc:(State.reg_loc w pd)
          | _ -> ());
          go ins' outs' (index + 1))
        else (
          ctx.emit
            (Error.instr_err ctx.name ~label ~index Error.Unmatched
               (Printf.sprintf
                  "`%s` does not correspond to source instruction `%s`"
                  (Instr.to_string o) (Instr.to_string i)));
          kill_out_def w o;
          kill_in_def w i;
          go ins' outs' (index + 1))
    | [], o :: outs' ->
        ctx.emit
          (Error.instr_err ctx.name ~label ~index Error.Unmatched
             (Printf.sprintf "`%s` has no counterpart in the source block"
                (Instr.to_string o)));
        kill_out_def w o;
        go [] outs' (index + 1)
    | i :: ins', [] ->
        ctx.emit
          (Error.instr_err ctx.name ~label ~index Error.Unmatched
             (Printf.sprintf
                "source instruction `%s` has no counterpart in the allocated \
                 block"
                (Instr.to_string i)));
        kill_in_def w i;
        go ins' [] index
    | [], [] -> ()
  in
  go ib.Block.body ob.Block.body 0

(* Resolve an output branch target through any chain of
   allocator-inserted forwarding blocks (critical-edge splits),
   applying their inserted instructions to the edge state, until a
   source-labelled block is reached.  [exit] is the branching block's
   final state; a forwarding chain reloads it into the working state
   and freezes the result. *)
let resolve ctx exit label0 =
  let w = ctx.w in
  let rec go visited label =
    if ctx.is_input_label label then Ok label
    else if List.mem label visited then
      Error
        (Error.routine_err ctx.name Error.Structure
           (Printf.sprintf
              "branch never reaches a source block: cycle through \
               allocator-inserted blocks at %s"
              label))
    else
      match ctx.out_block label with
      | None ->
          Error
            (Error.routine_err ctx.name Error.Structure
               (Printf.sprintf "branch target %s is not a block" label))
      | Some b ->
          if visited = [] then State.load w (Lazy.force exit);
          let rec body index = function
            | [] -> Ok ()
            | o :: rest ->
                if output_skippable o then (
                  apply_output_skip ctx.stats w o;
                  body (index + 1) rest)
                else
                  Error
                    (Error.instr_err ctx.name ~label:b.Block.label ~index
                       Error.Structure
                       (Printf.sprintf
                          "allocator-inserted block contains `%s`, which the \
                           allocator never inserts"
                          (Instr.to_string o)))
          in
          (match body 0 b.Block.body with
          | Error e -> Error e
          | Ok () -> (
              match b.Block.term.Instr.op with
              | Instr.Jmp next -> go (label :: visited) next
              | _ ->
                  Error
                    (Error.instr_err ctx.name ~label:b.Block.label
                       ~index:(List.length b.Block.body) Error.Structure
                       (Printf.sprintf
                          "allocator-inserted block must end in jmp, not `%s`"
                          (Instr.to_string b.Block.term)))))
  in
  match go [] label0 with
  | Error e -> Error e
  | Ok label when ctx.is_input_label label0 -> Ok (label, Lazy.force exit)
  | Ok label -> Ok (label, State.freeze w)

(* Match terminators and compute the outgoing edges: pairs of (source
   label, state at entry to that block). *)
let match_terms ctx ~label (ib : Block.t) (ob : Block.t) =
  let index = List.length ob.Block.body in
  let it = ib.Block.term and ot = ob.Block.term in
  let bad_target resolved wanted =
    ctx.emit
      (Error.instr_err ctx.name ~label ~index Error.Structure
         (Printf.sprintf
            "`%s` reaches source block %s, but the source terminator `%s` \
             names %s"
            (Instr.to_string ot) resolved (Instr.to_string it) wanted))
  in
  let w = ctx.w in
  (* Freezing waits for the first edge: a return has none. *)
  let exit = lazy (State.freeze w) in
  let edge wanted target =
    match resolve ctx exit target with
    | Ok (a, st') when String.equal a wanted -> [ (a, st') ]
    | Ok (a, _) ->
        bad_target a wanted;
        []
    | Error e ->
        ctx.emit e;
        []
  in
  let check_cond () =
    ctx.stats.uses <- ctx.stats.uses + 1;
    let v = it.Instr.srcs.(0) and p = ot.Instr.srcs.(0) in
    if not (State.holds w (State.vreg w v) (State.reg_loc w p)) then
      ctx.emit
        (Error.instr_err ctx.name ~label ~index Error.Wrong_value
           (Printf.sprintf
              "branch condition must carry the value of source register %s, \
               but %s cannot be proved to hold it"
              (Reg.to_string v) (Reg.to_string p)))
  in
  match (it.Instr.op, ot.Instr.op) with
  | Instr.Jmp li, Instr.Jmp lo -> edge li lo
  | Instr.Cbr (t, f), Instr.Jmp lo when String.equal t f ->
      (* the allocator normalizes a degenerate conditional branch *)
      edge t lo
  | Instr.Cbr (t, f), Instr.Cbr (to_, fo) ->
      check_cond ();
      edge t to_ @ edge f fo
  | Instr.Ret, Instr.Ret -> (
      match (it.Instr.srcs, ot.Instr.srcs) with
      | [||], [||] -> []
      | [| v |], [| p |] ->
          ctx.stats.uses <- ctx.stats.uses + 1;
          if not (State.holds w (State.vreg w v) (State.reg_loc w p)) then
            ctx.emit
              (Error.instr_err ctx.name ~label ~index Error.Wrong_value
                 (Printf.sprintf
                    "return value must carry source register %s, but %s \
                     cannot be proved to hold it"
                    (Reg.to_string v) (Reg.to_string p)));
          []
      | _ ->
          ctx.emit
            (Error.instr_err ctx.name ~label ~index Error.Structure
               "return value arity differs from the source");
          [])
  | _ ->
      ctx.emit
        (Error.instr_err ctx.name ~label ~index Error.Structure
           (Printf.sprintf
              "terminator `%s` does not correspond to source terminator `%s`"
              (Instr.to_string ot) (Instr.to_string it)));
      []

let check_block ctx st (ib : Block.t) (ob : Block.t) =
  ctx.stats.blocks <- ctx.stats.blocks + 1;
  let label = ob.Block.label in
  State.load ctx.w st;
  walk_bodies ctx ~label ib ob;
  match_terms ctx ~label ib ob

(* ------------------------------------------------------------------ *)
(* Whole-routine checks.                                               *)

(* Reads each instruction's destination and sources where they stand:
   no instruction, definition or use lists are built. *)
let over_k ~k_int ~k_float (cfg : Cfg.t) =
  let name = cfg.Cfg.name in
  let k_of r = match Reg.cls r with Reg.Int -> k_int | Reg.Float -> k_float in
  let errs = ref [] in
  let check label index (i : Instr.t) r =
    if Reg.id r >= k_of r then
      errs :=
        Error.instr_err name ~label ~index Error.Over_k
          (Printf.sprintf
             "`%s` mentions %s, beyond the %d available %s registers"
             (Instr.to_string i) (Reg.to_string r) (k_of r)
             (Reg.cls_to_string (Reg.cls r)))
        :: !errs
  in
  Cfg.iter_blocks
    (fun b ->
      let label = b.Block.label in
      let index = ref 0 in
      Block.iter_instrs
        (fun (i : Instr.t) ->
          (match i.Instr.dst with
          | Some r -> check label !index i r
          | None -> ());
          for s = 0 to Array.length i.Instr.srcs - 1 do
            check label !index i i.Instr.srcs.(s)
          done;
          incr index)
        b)
    cfg;
  List.rev !errs

(* Plain recursion, no per-block closure: the allocator gates every
   input, and a routine inside the domain allocates nothing here. *)
let find_block f (cfg : Cfg.t) =
  let rec go id =
    if id = Cfg.n_blocks cfg then None
    else match f (Cfg.block cfg id) with None -> go (id + 1) | e -> e
  in
  go 0

let rec first_spill index = function
  | [] -> None
  | (i : Instr.t) :: rest -> (
      match i.Instr.op with
      | Instr.Spill _ | Instr.Reload _ -> Some (index, i)
      | _ -> first_spill (index + 1) rest)

(* One walk, in block order; the error names the first offending block
   and, for spill code, the instruction. *)
let source_gate (cfg : Cfg.t) =
  let name = cfg.Cfg.name in
  find_block
    (fun b ->
      let label = b.Block.label in
      match b.Block.phis with
      | p :: _ ->
          Some
            (Error.block_err name ~label Error.Unsupported
               (Printf.sprintf
                  "source routine is in SSA form: φ-function defining %s"
                  (Reg.to_string p.Phi.dst)))
      | [] -> (
          match first_spill 0 b.Block.body with
          | None -> None
          | Some (index, i) ->
              Some
                (Error.instr_err name ~label ~index Error.Unsupported
                   (Printf.sprintf
                      "source routine already contains spill code: `%s` — \
                       allocation numbers frame slots itself"
                      (Instr.to_string i)))))
    cfg

(* Reverse postorder of the output CFG from its entry, by an iterative
   DFS (no recursion: routines reach 10^6 instructions), followed by any
   blocks the entry does not reach, in id order, so every block that
   can turn dirty is swept.  The allocator's [Dataflow.Order] computes
   the same thing, but the checker shares no analysis code with the
   allocator. *)
let sweep_order (cfg : Cfg.t) =
  let n = Cfg.n_blocks cfg in
  let seen = Array.make n false in
  let rest = Array.make n [] in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let post = Array.make n 0 in
  let k = ref n in
  let push b =
    seen.(b) <- true;
    rest.(b) <- Cfg.succs cfg b;
    stack.(!sp) <- b;
    incr sp
  in
  push (Cfg.entry_block cfg).Block.id;
  while !sp > 0 do
    let b = stack.(!sp - 1) in
    match rest.(b) with
    | s :: tl ->
        rest.(b) <- tl;
        if not seen.(s) then push s
    | [] ->
        decr sp;
        decr k;
        post.(!k) <- b
  done;
  let unreached = List.filter (fun b -> not seen.(b)) (List.init n Fun.id) in
  Array.append (Array.sub post !k (n - !k)) (Array.of_list unreached)

let routine ~(input : Cfg.t) ~(output : Cfg.t) ~k_int ~k_float =
  let name = output.Cfg.name in
  let output_phi (b : Block.t) =
    match b.Block.phis with
    | p :: _ ->
        Some
          (Error.block_err name ~label:b.Block.label Error.Structure
             (Printf.sprintf
                "allocated routine is in SSA form: φ-function defining %s"
                (Reg.to_string p.Phi.dst)))
    | [] -> None
  in
  match (source_gate input, find_block output_phi output) with
  | Some e, _ | None, Some e -> Result.Error [ e ]
  | None, None -> begin
    let errs = ref [] in
    if not (String.equal input.Cfg.name output.Cfg.name) then
      errs :=
        Error.routine_err name Error.Structure
          (Printf.sprintf "routine is named %s, but the source is named %s"
             output.Cfg.name input.Cfg.name)
        :: !errs;
    if input.Cfg.symbols <> output.Cfg.symbols then
      errs :=
        Error.routine_err name Error.Structure
          "static data symbols differ from the source"
        :: !errs;
    errs := List.rev_append (over_k ~k_int ~k_float output) !errs;
    let in_labels = Hashtbl.create 16 in
    Cfg.iter_blocks
      (fun b -> Hashtbl.replace in_labels b.Block.label b)
      input;
    let out_labels = Hashtbl.create 16 in
    Cfg.iter_blocks
      (fun b -> Hashtbl.replace out_labels b.Block.label b)
      output;
    let entry_ok =
      String.equal (Cfg.entry_block input).Block.label
        (Cfg.entry_block output).Block.label
    in
    if not entry_ok then
      errs :=
        Error.routine_err name Error.Structure
          (Printf.sprintf "entry block %s does not carry the source entry \
                           label %s"
             (Cfg.entry_block output).Block.label
             (Cfg.entry_block input).Block.label)
        :: !errs;
    let w = State.create () in
    let make_ctx emit stats =
      {
        w;
        name;
        emit;
        stats;
        is_input_label = Hashtbl.mem in_labels;
        out_block = Hashtbl.find_opt out_labels;
      }
    in
    (* Fixpoint: propagate states until they stabilise.  Dirty blocks
       are walked in sweeps over the reverse postorder, so a sweep
       carries each state change forward through the whole routine and
       only loop back edges wait for the next sweep.  Every walk writes
       its block's errors and counters into the block's slot,
       overwriting the previous walk's: a block is walked again whenever
       its entry state changes, so at the fixpoint each slot holds the
       walk from the block's final state — the unique maximal fixpoint,
       whatever the schedule. *)
    let n = Cfg.n_blocks output in
    let in_states : State.t option array = Array.make n None in
    let slot_errs = Array.make n [] in
    let slot_stats = Array.init n (fun _ -> fresh_stats ()) in
    let visits = ref 0 in
    let anchored label = Hashtbl.mem in_labels label in
    let dirty = Array.make n false in
    let n_dirty = ref 0 in
    let mark id =
      if not dirty.(id) then begin
        dirty.(id) <- true;
        incr n_dirty
      end
    in
    let propagate (label, st) =
      let id = (Hashtbl.find out_labels label).Block.id in
      match in_states.(id) with
      | None ->
          in_states.(id) <- Some st;
          mark id
      | Some old ->
          let met = State.meet old st in
          if not (State.equal met old) then begin
            in_states.(id) <- Some met;
            mark id
          end
    in
    if entry_ok then begin
      let entry = Cfg.entry_block output in
      if anchored entry.Block.label then
        propagate (entry.Block.label, State.empty)
    end;
    let order = sweep_order output in
    while !n_dirty > 0 do
      Array.iter
        (fun id ->
          if dirty.(id) then begin
            dirty.(id) <- false;
            decr n_dirty;
            let ob = Cfg.block output id in
            match
              (in_states.(id), Hashtbl.find_opt in_labels ob.Block.label)
            with
            | Some st, Some ib ->
                incr visits;
                let stats = fresh_stats () in
                slot_stats.(id) <- stats;
                let errs = ref [] in
                let ctx = make_ctx (fun e -> errs := e :: !errs) stats in
                let out = check_block ctx st ib ob in
                slot_errs.(id) <- List.rev !errs;
                List.iter propagate out
            | _ -> ()
          end)
        order
    done;
    let total f = Array.fold_left (fun acc st -> acc + f st) 0 slot_stats in
    match List.rev_append !errs (List.concat (Array.to_list slot_errs)) with
    | [] ->
        Result.Ok
          {
            blocks_checked = total (fun st -> st.blocks);
            instrs_matched = total (fun st -> st.matched);
            uses_checked = total (fun st -> st.uses);
            remats_checked = total (fun st -> st.remats);
            copies_skipped = total (fun st -> st.moves);
            fixpoint_visits = !visits;
          }
    | errors -> Result.Error errors
  end
