(** IR well-formedness checks.

    [routine] re-checks every invariant the constructors enforce (operand
    arity and register classes, terminator placement, label resolution) so
    that code mutated in place by the allocator can be re-validated, and
    adds whole-routine checks that no constructor can see:

    - symbol references resolve, and [ldro] only reads read-only symbols
      (otherwise its never-killed tag would be unsound);
    - every use is definitely assigned on all paths from the entry;
    - in SSA form: each register has a unique definition and every φ-node
      has exactly one argument per predecessor. *)

type error = {
  where : string;
  block : string option;
  index : int option;
  what : string;
}

let pp_error ppf e =
  match e.index with
  | Some i -> Format.fprintf ppf "%s#%d: %s" e.where i e.what
  | None -> Format.fprintf ppf "%s: %s" e.where e.what

let error_to_string e = Format.asprintf "%a" pp_error e

(* Error constructors: routine-level, block-level, instruction-level. *)
let routine_err (cfg : Cfg.t) what =
  { where = cfg.name; block = None; index = None; what }

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

let check_instr (cfg : Cfg.t) (b : Block.t) errs idx (i : Instr.t) =
  let err what = errs := instr_err cfg b.label idx what :: !errs in
  (try
     ignore
       (Instr.make i.op
          ?dst:i.dst
          (Array.to_list i.srcs))
   with Invalid_argument m -> err m);
  let check_sym name ~need_ro =
    match List.find_opt (fun (s : Symbol.t) -> s.name = name) cfg.symbols with
    | None -> err (Printf.sprintf "unknown symbol @%s" name)
    | Some s ->
        if need_ro && not s.readonly then
          err (Printf.sprintf "ldro from writable symbol @%s" name)
  in
  match i.op with
  | Instr.Laddr (s, _) -> check_sym s ~need_ro:false
  | Instr.Ldro (s, off) ->
      check_sym s ~need_ro:true;
      (match
         List.find_opt (fun (sy : Symbol.t) -> sy.name = s) cfg.symbols
       with
      | Some sy when off < 0 || off >= sy.size ->
          err (Printf.sprintf "ldro offset %d out of bounds for @%s" off s)
      | _ -> ())
  | _ -> ()

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

let check_ssa (cfg : Cfg.t) errs =
  let defs = Reg.Tbl.create 64 in
  let err b what = errs := block_err cfg b what :: !errs in
  let record b r =
    if Reg.Tbl.mem defs r then
      err b (Printf.sprintf "%s defined more than once" (Reg.to_string r))
    else Reg.Tbl.add defs r ()
  in
  Cfg.iter_blocks
    (fun b ->
      List.iter (fun (p : Phi.t) -> record b.label p.dst) b.phis;
      Block.iter_instrs
        (fun i -> List.iter (record b.label) (Instr.defs i))
        b;
      let preds = List.sort_uniq Int.compare (Cfg.preds cfg b.id) in
      List.iter
        (fun (p : Phi.t) ->
          let args = List.map fst p.args |> List.sort_uniq Int.compare in
          if args <> preds then
            err b.label
              (Printf.sprintf "phi for %s does not match predecessors"
                 (Reg.to_string p.dst)))
        b.phis)
    cfg

let routine ?(ssa = false) (cfg : Cfg.t) =
  let errs = ref [] in
  (* Labels resolve and are unique: recomputing edges re-runs those checks. *)
  (try Cfg.rebuild_edges cfg
   with Invalid_argument m -> errs := routine_err cfg m :: !errs);
  Cfg.iter_blocks
    (fun b ->
      List.iteri (check_instr cfg b errs) (Block.instrs b);
      List.iteri
        (fun idx i ->
          if Instr.is_terminator i then
            errs :=
              instr_err cfg b.label idx "terminator in block body" :: !errs)
        b.body;
      if (not ssa) && b.phis <> [] then
        errs := block_err cfg b.label "phi outside SSA form" :: !errs)
    cfg;
  if !errs = [] then check_defined cfg errs;
  if ssa && !errs = [] then check_ssa cfg errs;
  match List.rev !errs with [] -> Ok () | es -> Error es
