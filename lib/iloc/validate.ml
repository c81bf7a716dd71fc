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
  let unknown name = err (Printf.sprintf "unknown symbol @%s" name) in
  let find name =
    List.find_opt (fun (s : Symbol.t) -> s.name = name) cfg.symbols
  in
  match i.op with
  | Instr.Laddr (s, _) -> if find s = None then unknown s
  | Instr.Ldro (s, off) -> (
      match find s with
      | None -> unknown s
      | Some sy ->
          if not sy.readonly then
            err (Printf.sprintf "ldro from writable symbol @%s" s);
          if off < 0 || off >= sy.size then
            err (Printf.sprintf "ldro offset %d out of bounds for @%s" off s))
  | _ -> ()

(* Int bitsets over a dense index, [Sys.int_size] bits a word. *)
let bits = Sys.int_size
let mem s i = (s.(i / bits) lsr (i mod bits)) land 1 = 1
let add s i = s.(i / bits) <- s.(i / bits) lor (1 lsl (i mod bits))

let equal a b =
  let rec go w = w < 0 || (a.(w) = b.(w) && go (w - 1)) in
  go (Array.length a - 1)

(* A register's state in [check_defined]'s first sweep: the last block
   that defined it so far, and its index in U (-1 when not in U). *)
type slot = { mutable def_block : int; mutable u : int }

(* Forward must-be-defined analysis.  in(entry) = {}, in(b) = the
   intersection over predecessors p of out(p); out = in plus local defs.
   φ-nodes define their destination at block entry and their arguments are
   checked against the corresponding predecessor's out set.

   Only the registers in U can be reported: those some reachable block
   reads before defining them (its exposed uses), plus φ arguments.
   Every other use has a definition earlier in its own block.  The
   analysis is separable per register, so it runs on bitsets over U and
   its fixpoint is the full analysis's restricted to U; the final walk
   checks each exposed use against its block's in set. *)
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
  (* First sweep: number U, and list each reachable block's definitions
     and, in order, its exposed uses. *)
  let slots = Reg.Tbl.create 64 and n_u = ref 0 in
  let slot r =
    match Reg.Tbl.find_opt slots r with
    | Some s -> s
    | None ->
        let s = { def_block = -1; u = -1 } in
        Reg.Tbl.add slots r s;
        s
  in
  let into_u s =
    if s.u < 0 then begin
      s.u <- !n_u;
      incr n_u
    end
  in
  let defs = Array.make n [] and exposed = Array.make n [] in
  Cfg.iter_blocks
    (fun b ->
      if reachable.(b.id) then begin
        let def r =
          let s = slot r in
          s.def_block <- b.id;
          defs.(b.id) <- s :: defs.(b.id)
        in
        List.iter
          (fun (p : Phi.t) -> List.iter (fun (_, r) -> into_u (slot r)) p.args)
          b.phis;
        List.iter (fun (p : Phi.t) -> def p.dst) b.phis;
        let idx = ref 0 in
        Block.iter_instrs
          (fun i ->
            Array.iter
              (fun r ->
                let s = slot r in
                if s.def_block <> b.id then begin
                  into_u s;
                  exposed.(b.id) <- (!idx, i, r, s) :: exposed.(b.id)
                end)
              i.srcs;
            Option.iter def i.dst;
            incr idx)
          b
      end)
    cfg;
  let words = (!n_u + bits - 1) / bits in
  (* ⊤ sets every bit of its words; bits past U stand for no register and
     are never read. *)
  let top = Array.make words (-1) in
  let out =
    Array.init n (fun b -> if reachable.(b) then Array.copy top else top)
  in
  let in_into acc b =
    match if b = cfg.entry then [] else Cfg.preds cfg b with
    | [] -> Array.fill acc 0 words 0 (* the entry, or no predecessor *)
    | p :: ps ->
        Array.blit out.(p) 0 acc 0 words;
        List.iter
          (fun q ->
            let o = out.(q) in
            for w = 0 to words - 1 do
              acc.(w) <- acc.(w) land o.(w)
            done)
          ps
  in
  let cur = Array.make words 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      if reachable.(b) then begin
        in_into cur b;
        List.iter (fun s -> if s.u >= 0 then add cur s.u) defs.(b);
        if not (equal cur out.(b)) then (
          Array.blit cur 0 out.(b) 0 words;
          changed := true)
      end
    done
  done;
  Cfg.iter_blocks
    (fun b ->
      if reachable.(b.id) then begin
        List.iter
          (fun (p : Phi.t) ->
            List.iter
              (fun (pred, r) ->
                if not (mem out.(pred) (Reg.Tbl.find slots r).u) then
                  errs :=
                    block_err cfg b.label
                      (Printf.sprintf
                         "phi argument %s not defined on edge from B%d"
                         (Reg.to_string r) pred)
                    :: !errs)
              p.args)
          b.phis;
        in_into cur b.id;
        List.iter
          (fun (idx, i, r, s) ->
            if not (mem cur s.u) then
              errs :=
                instr_err cfg b.label idx
                  (Printf.sprintf "use of possibly-undefined %s in '%s'"
                     (Reg.to_string r) (Instr.to_string i))
                :: !errs)
          (List.rev exposed.(b.id))
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
