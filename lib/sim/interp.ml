module Instr = Iloc.Instr
module Reg = Iloc.Reg
module Symbol = Iloc.Symbol

type value = I of int | F of float

exception Runtime_error of string

type outcome = {
  return : value option;
  prints : value list;
  counts : Counts.t;
  memory : (string * value option array) list;
}

let fail fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

let value_equal a b =
  match (a, b) with
  | I x, I y -> x = y
  | F x, F y -> Float.equal x y
  | I _, F _ | F _, I _ -> false

let pp_value ppf = function
  | I n -> Format.fprintf ppf "%d" n
  | F x -> Format.fprintf ppf "%g" x

(* Static data layout: symbols are placed one after another, starting at a
   non-zero base so that address 0 stays invalid. *)
type layout = {
  base_of : (string, int) Hashtbl.t;
  cells : value option array;
  names : (string * int * int) list;  (* name, base, size *)
}

let layout_of (cfg : Iloc.Cfg.t) =
  let base_of = Hashtbl.create 8 in
  let next = ref 16 in
  let names = ref [] in
  List.iter
    (fun (s : Symbol.t) ->
      Hashtbl.replace base_of s.name !next;
      names := (s.name, !next, s.size) :: !names;
      next := !next + s.size)
    cfg.symbols;
  let cells = Array.make !next None in
  List.iter
    (fun (s : Symbol.t) ->
      let base = Hashtbl.find base_of s.name in
      match s.init with
      | Symbol.Uninit -> ()
      | Symbol.Int_elts l -> List.iteri (fun i n -> cells.(base + i) <- Some (I n)) l
      | Symbol.Float_elts l ->
          List.iteri (fun i x -> cells.(base + i) <- Some (F x)) l)
    cfg.symbols;
  { base_of; cells; names = List.rev !names }

let run ?(fuel = 50_000_000) (cfg : Iloc.Cfg.t) =
  if Iloc.Cfg.in_ssa cfg then
    invalid_arg "Interp.run: cannot execute SSA form (phi-nodes present)";
  let layout = layout_of cfg in
  let regs : value Reg.Tbl.t = Reg.Tbl.create 64 in
  let frame : (int, value) Hashtbl.t = Hashtbl.create 16 in
  let counts = Counts.create () in
  let prints = ref [] in
  let fuel = ref fuel in
  let geti r =
    match Reg.Tbl.find_opt regs r with
    | Some (I n) -> n
    | Some (F _) -> fail "float value in integer register %s" (Reg.to_string r)
    | None -> fail "read of uninitialized register %s" (Reg.to_string r)
  in
  let getf r =
    match Reg.Tbl.find_opt regs r with
    | Some (F x) -> x
    | Some (I _) -> fail "integer value in float register %s" (Reg.to_string r)
    | None -> fail "read of uninitialized register %s" (Reg.to_string r)
  in
  let getv r =
    match Reg.Tbl.find_opt regs r with
    | Some v -> v
    | None -> fail "read of uninitialized register %s" (Reg.to_string r)
  in
  let set r v =
    (match (Reg.cls r, v) with
    | Reg.Int, I _ | Reg.Float, F _ -> ()
    | Reg.Int, F _ -> fail "writing float into %s" (Reg.to_string r)
    | Reg.Float, I _ -> fail "writing int into %s" (Reg.to_string r));
    Reg.Tbl.replace regs r v
  in
  let base_of s =
    match Hashtbl.find_opt layout.base_of s with
    | Some b -> b
    | None -> fail "unknown symbol @%s" s
  in
  let mem_read addr (cls : Reg.cls) =
    if addr < 16 || addr >= Array.length layout.cells then
      fail "load from invalid address %d" addr;
    match (layout.cells.(addr), cls) with
    | Some (I n), Reg.Int -> I n
    | Some (F x), Reg.Float -> F x
    | Some (I _), Reg.Float -> fail "float load of integer cell %d" addr
    | Some (F _), Reg.Int -> fail "integer load of float cell %d" addr
    | None, _ -> fail "load from uninitialized address %d" addr
  in
  let mem_write addr v =
    if addr < 16 || addr >= Array.length layout.cells then
      fail "store to invalid address %d" addr;
    layout.cells.(addr) <- Some v
  in
  let block_of_label l = Iloc.Cfg.find_label cfg l in
  let return = ref None in
  let running = ref true in
  let pc_block = ref cfg.entry in
  (* Frame-pointer-relative addresses live in a distinct negative range so
     that mixing frame and static pointers is caught, yet lfp/addi
     arithmetic on them still works. *)
  let fp_base = -1_000_000 in
  let exec (i : Instr.t) =
    decr fuel;
    if !fuel < 0 then fail "out of fuel (possible infinite loop)";
    Counts.record counts i.op;
    let dst () = Option.get i.dst in
    let s0 () = i.srcs.(0) and s1 () = i.srcs.(1) in
    let int_bin f = set (dst ()) (I (f (geti (s0 ())) (geti (s1 ())))) in
    let float_bin f = set (dst ()) (F (f (getf (s0 ())) (getf (s1 ())))) in
    match i.op with
    | Instr.Ldi n -> set (dst ()) (I n)
    | Instr.Lfi x -> set (dst ()) (F x)
    | Instr.Laddr (s, off) -> set (dst ()) (I (base_of s + off))
    | Instr.Lfp off -> set (dst ()) (I (fp_base + off))
    | Instr.Ldro (s, off) -> set (dst ()) (mem_read (base_of s + off) (Reg.cls (dst ())))
    | Instr.Add -> int_bin ( + )
    | Instr.Sub -> int_bin ( - )
    | Instr.Mul -> int_bin ( * )
    | Instr.Div ->
        let d = geti (s1 ()) in
        if d = 0 then fail "division by zero";
        set (dst ()) (I (geti (s0 ()) / d))
    | Instr.Rem ->
        let d = geti (s1 ()) in
        if d = 0 then fail "remainder by zero";
        set (dst ()) (I (geti (s0 ()) mod d))
    | Instr.Cmp r ->
        set (dst ()) (I (if Instr.eval_rel_int r (geti (s0 ())) (geti (s1 ())) then 1 else 0))
    | Instr.Addi n -> set (dst ()) (I (geti (s0 ()) + n))
    | Instr.Subi n -> set (dst ()) (I (geti (s0 ()) - n))
    | Instr.Muli n -> set (dst ()) (I (geti (s0 ()) * n))
    | Instr.Fadd -> float_bin ( +. )
    | Instr.Fsub -> float_bin ( -. )
    | Instr.Fmul -> float_bin ( *. )
    | Instr.Fdiv -> float_bin ( /. )
    | Instr.Fcmp r ->
        set (dst ()) (I (if Instr.eval_rel_float r (getf (s0 ())) (getf (s1 ())) then 1 else 0))
    | Instr.Fneg -> set (dst ()) (F (-.getf (s0 ())))
    | Instr.Fabs -> set (dst ()) (F (Float.abs (getf (s0 ()))))
    | Instr.Itof -> set (dst ()) (F (float_of_int (geti (s0 ()))))
    | Instr.Ftoi -> set (dst ()) (I (int_of_float (getf (s0 ()))))
    | Instr.Copy -> set (dst ()) (getv (s0 ()))
    | Instr.Load -> set (dst ()) (mem_read (geti (s0 ())) (Reg.cls (dst ())))
    | Instr.Loadx ->
        set (dst ()) (mem_read (geti (s0 ()) + geti (s1 ())) (Reg.cls (dst ())))
    | Instr.Loadi off ->
        set (dst ()) (mem_read (geti (s0 ()) + off) (Reg.cls (dst ())))
    | Instr.Store -> mem_write (geti (s1 ())) (getv (s0 ()))
    | Instr.Storex -> mem_write (geti (s1 ()) + geti i.srcs.(2)) (getv (s0 ()))
    | Instr.Storei off -> mem_write (geti (s1 ()) + off) (getv (s0 ()))
    | Instr.Spill slot -> Hashtbl.replace frame slot (getv (s0 ()))
    | Instr.Reload slot -> (
        match Hashtbl.find_opt frame slot with
        | Some v -> set (dst ()) v
        | None -> fail "reload from uninitialized spill slot %d" slot)
    | Instr.Jmp l -> pc_block := block_of_label l
    | Instr.Cbr (l1, l2) ->
        pc_block := block_of_label (if geti (s0 ()) <> 0 then l1 else l2)
    | Instr.Ret ->
        running := false;
        if Array.length i.srcs = 1 then return := Some (getv (s0 ()))
    | Instr.Print -> prints := getv (s0 ()) :: !prints
    | Instr.Nop -> ()
  in
  while !running do
    let b = Iloc.Cfg.block cfg !pc_block in
    List.iter exec b.body;
    exec b.term
  done;
  let memory =
    List.map
      (fun (name, base, size) ->
        ( name,
          Array.init size (fun i ->
              Option.map (fun v -> v) layout.cells.(base + i)) ))
      layout.names
  in
  { return = !return; prints = List.rev !prints; counts; memory }

let outcome_equal a b =
  let opt_eq x y =
    match (x, y) with
    | None, None -> true
    | Some u, Some v -> value_equal u v
    | _ -> false
  in
  opt_eq a.return b.return
  && List.length a.prints = List.length b.prints
  && List.for_all2 value_equal a.prints b.prints
  && List.length a.memory = List.length b.memory
  && List.for_all2
       (fun (n1, m1) (n2, m2) ->
         String.equal n1 n2
         && Array.length m1 = Array.length m2
         &&
         let ok = ref true in
         Array.iteri (fun i c -> if not (opt_eq c m2.(i)) then ok := false) m1;
         !ok)
       a.memory b.memory
