type rel = Eq | Ne | Lt | Le | Gt | Ge

type op =
  | Ldi of int
  | Lfi of float
  | Laddr of string * int
  | Lfp of int
  | Ldro of string * int
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Cmp of rel
  | Addi of int
  | Subi of int
  | Muli of int
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fcmp of rel
  | Fneg
  | Fabs
  | Itof
  | Ftoi
  | Copy
  | Load
  | Loadx
  | Loadi of int
  | Store
  | Storex
  | Storei of int
  | Spill of int
  | Reload of int
  | Jmp of string
  | Cbr of string * string
  | Ret
  | Print
  | Nop

type t = { op : op; dst : Reg.t option; srcs : Reg.t array }

(* Operand discipline: expected destination and source classes per opcode.
   [`Any] stands for either class (loads pick the width from the
   destination; stores and prints accept both). *)
type cls_req = [ `I | `F | `Any ]

let spec : op -> cls_req option * cls_req list = function
  | Ldi _ | Laddr _ | Lfp _ -> (Some `I, [])
  | Lfi _ -> (Some `F, [])
  | Ldro _ | Reload _ -> (Some `Any, [])
  | Add | Sub | Mul | Div | Rem | Cmp _ -> (Some `I, [ `I; `I ])
  | Addi _ | Subi _ | Muli _ -> (Some `I, [ `I ])
  | Fadd | Fsub | Fmul | Fdiv -> (Some `F, [ `F; `F ])
  | Fcmp _ -> (Some `I, [ `F; `F ])
  | Fneg | Fabs -> (Some `F, [ `F ])
  | Itof -> (Some `F, [ `I ])
  | Ftoi -> (Some `I, [ `F ])
  | Copy -> (Some `Any, [ `Any ])
  | Load | Loadi _ -> (Some `Any, [ `I ])
  | Loadx -> (Some `Any, [ `I; `I ])
  | Store -> (None, [ `Any; `I ])
  | Storex -> (None, [ `Any; `I; `I ])
  | Storei _ -> (None, [ `Any; `I ])
  | Spill _ | Print -> (None, [ `Any ])
  | Jmp _ | Nop -> (None, [])
  | Cbr _ -> (None, [ `I ])
  | Ret -> (None, [])

let cls_ok (req : cls_req) (r : Reg.t) =
  match req with
  | `Any -> true
  | `I -> Reg.is_int r
  | `F -> Reg.is_float r

let op_name = function
  | Ldi _ -> "ldi"
  | Lfi _ -> "lfi"
  | Laddr _ -> "laddr"
  | Lfp _ -> "lfp"
  | Ldro _ -> "ldro"
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Cmp _ -> "cmp"
  | Addi _ -> "addi"
  | Subi _ -> "subi"
  | Muli _ -> "muli"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fcmp _ -> "fcmp"
  | Fneg -> "fneg"
  | Fabs -> "fabs"
  | Itof -> "itof"
  | Ftoi -> "ftoi"
  | Copy -> "copy"
  | Load -> "load"
  | Loadx -> "loadx"
  | Loadi _ -> "loadi"
  | Store -> "store"
  | Storex -> "storex"
  | Storei _ -> "storei"
  | Spill _ -> "spill"
  | Reload _ -> "reload"
  | Jmp _ -> "jmp"
  | Cbr _ -> "cbr"
  | Ret -> "ret"
  | Print -> "print"
  | Nop -> "nop"

let make op ?dst srcs =
  let fail msg = invalid_arg (Printf.sprintf "Instr.make %s: %s" (op_name op) msg) in
  (match op with
  | Ret ->
      (* [ret] takes zero or one source of either class. *)
      if List.length srcs > 1 then fail "ret takes at most one source";
      if dst <> None then fail "ret has no destination"
  | _ -> (
      let dst_req, src_reqs = spec op in
      (match (dst_req, dst) with
      | None, None -> ()
      | None, Some _ -> fail "unexpected destination"
      | Some _, None -> fail "missing destination"
      | Some req, Some d ->
          if not (cls_ok req d) then fail "destination register class");
      if List.length srcs <> List.length src_reqs then fail "source arity";
      List.iter2
        (fun req r -> if not (cls_ok req r) then fail "source register class")
        src_reqs srcs;
      match (op, dst, srcs) with
      | Copy, Some d, [ s ] ->
          if not (Reg.cls_equal (Reg.cls d) (Reg.cls s)) then
            fail "copy must stay within a register class"
      | _ -> ()));
  { op; dst; srcs = Array.of_list srcs }

let ldi d n = make (Ldi n) ~dst:d []
let lfi d x = make (Lfi x) ~dst:d []
let laddr d ?(off = 0) s = make (Laddr (s, off)) ~dst:d []
let lfp d off = make (Lfp off) ~dst:d []
let ldro d s off = make (Ldro (s, off)) ~dst:d []
let add d a b = make Add ~dst:d [ a; b ]
let sub d a b = make Sub ~dst:d [ a; b ]
let mul d a b = make Mul ~dst:d [ a; b ]
let div d a b = make Div ~dst:d [ a; b ]
let rem d a b = make Rem ~dst:d [ a; b ]
let cmp r d a b = make (Cmp r) ~dst:d [ a; b ]
let addi d a n = make (Addi n) ~dst:d [ a ]
let subi d a n = make (Subi n) ~dst:d [ a ]
let muli d a n = make (Muli n) ~dst:d [ a ]
let fadd d a b = make Fadd ~dst:d [ a; b ]
let fsub d a b = make Fsub ~dst:d [ a; b ]
let fmul d a b = make Fmul ~dst:d [ a; b ]
let fdiv d a b = make Fdiv ~dst:d [ a; b ]
let fcmp r d a b = make (Fcmp r) ~dst:d [ a; b ]
let fneg d a = make Fneg ~dst:d [ a ]
let fabs d a = make Fabs ~dst:d [ a ]
let itof d a = make Itof ~dst:d [ a ]
let ftoi d a = make Ftoi ~dst:d [ a ]
let copy d s = make Copy ~dst:d [ s ]
let load d a = make Load ~dst:d [ a ]
let loadx d a b = make Loadx ~dst:d [ a; b ]
let loadi d a off = make (Loadi off) ~dst:d [ a ]
let store ~value ~addr = make Store [ value; addr ]
let storex ~value ~base ~idx = make Storex [ value; base; idx ]
let storei ~value ~base ~off = make (Storei off) [ value; base ]
let spill s slot = make (Spill slot) [ s ]
let reload d slot = make (Reload slot) ~dst:d []
let jmp l = make (Jmp l) []
let cbr c l1 l2 = make (Cbr (l1, l2)) [ c ]
let ret = function None -> make Ret [] | Some r -> make Ret [ r ]
let print_ r = make Print [ r ]
let nop = make Nop []

let defs t = match t.dst with None -> [] | Some d -> [ d ]
let uses t = Array.to_list t.srcs

let is_terminator t =
  match t.op with Jmp _ | Cbr _ | Ret -> true | _ -> false

let is_copy t = match t.op with Copy -> true | _ -> false

let rel_equal (a : rel) (b : rel) = a = b

(* Float payloads compare via [Float.equal] (total: NaN equals itself,
   +0 equals -0), matching the polymorphic-compare semantics
   [Cfg.structural_equal] historically used. *)
let equal_op (a : op) (b : op) =
  match (a, b) with
  | Ldi x, Ldi y
  | Lfp x, Lfp y
  | Addi x, Addi y
  | Subi x, Subi y
  | Muli x, Muli y
  | Loadi x, Loadi y
  | Storei x, Storei y
  | Spill x, Spill y
  | Reload x, Reload y ->
      x = y
  | Lfi x, Lfi y -> Float.equal x y
  | Laddr (s, x), Laddr (s', y) | Ldro (s, x), Ldro (s', y) ->
      String.equal s s' && x = y
  | Cmp r, Cmp r' | Fcmp r, Fcmp r' -> rel_equal r r'
  | Jmp l, Jmp l' -> String.equal l l'
  | Cbr (l1, l2), Cbr (l1', l2') -> String.equal l1 l1' && String.equal l2 l2'
  | Add, Add
  | Sub, Sub
  | Mul, Mul
  | Div, Div
  | Rem, Rem
  | Fadd, Fadd
  | Fsub, Fsub
  | Fmul, Fmul
  | Fdiv, Fdiv
  | Fneg, Fneg
  | Fabs, Fabs
  | Itof, Itof
  | Ftoi, Ftoi
  | Copy, Copy
  | Load, Load
  | Loadx, Loadx
  | Store, Store
  | Storex, Storex
  | Ret, Ret
  | Print, Print
  | Nop, Nop ->
      true
  | _ -> false

let equal a b =
  equal_op a.op b.op
  && Option.equal Reg.equal a.dst b.dst
  && Array.length a.srcs = Array.length b.srcs
  && Array.for_all2 Reg.equal a.srcs b.srcs

let never_killed = function
  | Ldi _ | Lfi _ | Laddr _ | Lfp _ | Ldro _ -> true
  | _ -> false

let remat_equal (a : op) (b : op) =
  match (a, b) with
  | Ldi x, Ldi y -> x = y
  | Lfi x, Lfi y -> Float.equal x y
  | Laddr (x, ox), Laddr (y, oy) -> String.equal x y && ox = oy
  | Lfp x, Lfp y -> x = y
  | Ldro (s, o), Ldro (s', o') -> String.equal s s' && o = o'
  | _ -> false

let targets t =
  match t.op with
  | Jmp l -> [ l ]
  | Cbr (l1, l2) -> [ l1; l2 ]
  | _ -> []

let map_regs f t =
  {
    t with
    dst = Option.map f t.dst;
    srcs = Array.map f t.srcs;
  }

let map_targets f t =
  match t.op with
  | Jmp l -> { t with op = Jmp (f l) }
  | Cbr (l1, l2) -> { t with op = Cbr (f l1, f l2) }
  | _ -> t

type category = Cat_load | Cat_store | Cat_copy | Cat_ldi | Cat_addi | Cat_other

let category = function
  | Load | Loadx | Loadi _ | Reload _ | Ldro _ -> Cat_load
  | Store | Storex | Storei _ | Spill _ -> Cat_store
  | Copy -> Cat_copy
  | Ldi _ | Lfi _ | Laddr _ -> Cat_ldi
  | Lfp _ | Addi _ | Subi _ -> Cat_addi
  | Add | Sub | Mul | Div | Rem | Cmp _ | Muli _ | Fadd | Fsub | Fmul | Fdiv
  | Fcmp _ | Fneg | Fabs | Itof | Ftoi | Jmp _ | Cbr _ | Ret | Print | Nop ->
      Cat_other

let category_to_string = function
  | Cat_load -> "load"
  | Cat_store -> "store"
  | Cat_copy -> "copy"
  | Cat_ldi -> "ldi"
  | Cat_addi -> "addi"
  | Cat_other -> "other"

let all_categories =
  [ Cat_load; Cat_store; Cat_copy; Cat_ldi; Cat_addi; Cat_other ]

let rel_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let eval_rel_int r (a : int) b =
  match r with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let eval_rel_float r (a : float) b =
  match r with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

(* The one instruction printer: [to_string] and [pp] derive from it and
   [Printer] writes whole routines through it, so every textual form of
   an instruction is this text.  Integers print as [%d] and floats as
   [%h], which [Parser] reads back exactly. *)
let to_buffer b t =
  let str = Buffer.add_string b in
  let reg (r : Reg.t) =
    Buffer.add_char b (if Reg.is_int r then 'r' else 'f');
    str (string_of_int (Reg.id r))
  in
  let d name =
    (match t.dst with None -> assert false | Some d -> reg d);
    str " <- ";
    str name
  in
  let s i =
    Buffer.add_char b ' ';
    reg t.srcs.(i)
  in
  let n x =
    Buffer.add_char b ' ';
    str (string_of_int x)
  in
  let sym l =
    str " @";
    str l
  in
  let slot x =
    str " [";
    str (string_of_int x);
    Buffer.add_char b ']'
  in
  match t.op with
  | Ldi x -> d "ldi"; n x
  | Lfi x -> d "lfi"; Printf.bprintf b " %h" x
  | Laddr (l, 0) -> d "laddr"; sym l
  | Laddr (l, off) | Ldro (l, off) -> d (op_name t.op); sym l; n off
  | Lfp off -> d "lfp"; n off
  | Add | Sub | Mul | Div | Rem | Fadd | Fsub | Fmul | Fdiv | Loadx ->
      d (op_name t.op); s 0; s 1
  | Cmp r -> d "cmp_"; str (rel_to_string r); s 0; s 1
  | Fcmp r -> d "fcmp_"; str (rel_to_string r); s 0; s 1
  | Addi x | Subi x | Muli x | Loadi x -> d (op_name t.op); s 0; n x
  | Fneg | Fabs | Itof | Ftoi | Copy | Load -> d (op_name t.op); s 0
  | Store -> str "store"; s 0; str " ->"; s 1
  | Storex -> str "storex"; s 0; str " ->"; s 1; s 2
  | Storei off -> str "storei"; s 0; str " ->"; s 1; n off
  | Spill x -> str "spill"; s 0; str " ->"; slot x
  | Reload x -> d "reload"; slot x
  | Jmp l -> str "jmp "; str l
  | Cbr (l1, l2) -> str "cbr"; s 0; str " "; str l1; str " "; str l2
  | Ret -> str "ret"; if Array.length t.srcs > 0 then s 0
  | Print -> str "print"; s 0
  | Nop -> str "nop"

let to_string t =
  let b = Buffer.create 32 in
  to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)
