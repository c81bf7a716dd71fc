open Iloc

type vreg = int
type loc = int
type op = int

(* A fact is one int: the location (or register) in the high bits, the
   register (or op) in the low [shift] bits — interned ids stay far below
   2{^31}, the packed key below 2{^62}.  Sorted key arrays then
   order facts by location, then register, and a fact of [exprs] or
   [consts] — at most one op per key — is equal in two states exactly
   when its packed key is. *)
let shift = 31
let low = (1 lsl shift) - 1
let key hi lo = (hi lsl shift) lor lo

module Int_tbl = Hashtbl.Make (Int)

module Op_tbl = Hashtbl.Make (struct
  type t = Instr.op

  let equal = Instr.remat_equal
  let hash = Hashtbl.hash
end)

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                          *)

type t = { eqs : int array; exprs : int array; consts : int array }

let empty = { eqs = [||]; exprs = [||]; consts = [||] }

let same_ints (a : int array) (b : int array) =
  a == b
  ||
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i =
    i = n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
  in
  go 0

let equal a b =
  same_ints a.eqs b.eqs && same_ints a.exprs b.exprs
  && same_ints a.consts b.consts

(* Merge-intersection of two sorted key arrays.  A first pass counts the
   common keys: when every key of [a] survives, [a] itself is the
   result, which is the common case at a join the loop has already
   visited and allocates nothing. *)
let inter (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let rec count i j c =
    if i = na || j = nb then c
    else
      let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
      if x = y then count (i + 1) (j + 1) (c + 1)
      else if x < y then count (i + 1) j c
      else count i (j + 1) c
  in
  let c = count 0 0 0 in
  if c = na then a
  else if c = nb then b
  else
    let r = Array.make c 0 in
    let rec fill i j k =
      if k < c then
        let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
        if x = y then (
          Array.unsafe_set r k x;
          fill (i + 1) (j + 1) (k + 1))
        else if x < y then fill (i + 1) j k
        else fill i (j + 1) k
    in
    fill 0 0 0;
    r

let meet a b =
  {
    eqs = inter a.eqs b.eqs;
    exprs = inter a.exprs b.exprs;
    consts = inter a.consts b.consts;
  }

let sort_ints (a : int array) =
  let n = Array.length a in
  if n <= 32 then
    for i = 1 to n - 1 do
      let x = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= 0 && Array.unsafe_get a !j > x do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) x
    done
  else Array.stable_sort Int.compare a

(* ------------------------------------------------------------------ *)
(* The working state.                                                  *)

(* [eqs] is a sparse boolean matrix, locations × registers, kept as
   nodes threaded on two doubly linked lists: the facts of one location
   and the facts of one register.  Nodes live in parallel arrays with a
   free list, so a transfer allocates nothing once the pool has grown.
   [consts] threads every register tagged with one op on that op's list
   ([cnext]/[cprev]), so [remat] finds them without a scan. *)
type work = {
  vregs : int Reg.Tbl.t;
  regs : int Reg.Tbl.t;
  slots : int Int_tbl.t;
  ops : int Op_tbl.t;
  mutable n_vregs : int;
  mutable n_locs : int;
  mutable n_ops : int;
  (* per register *)
  mutable vcls : Bytes.t;  (* 0 int, 1 float *)
  mutable vhead : int array;  (* first eqs node, or -1 *)
  mutable vop : int array;  (* consts tag, or -1 *)
  mutable cnext : int array;
  mutable cprev : int array;
  mutable vmark : Bytes.t;
  (* per location *)
  mutable lcls : Bytes.t;  (* 0 int, 1 float, 2 slot *)
  mutable lhead : int array;
  mutable lop : int array;  (* exprs, or -1 *)
  mutable lmark : Bytes.t;
  (* per op *)
  mutable ohead : int array;  (* first register tagged with it, or -1 *)
  (* eqs nodes *)
  mutable nloc : int array;
  mutable nvreg : int array;
  mutable lnext : int array;  (* also the free list's link *)
  mutable lprev : int array;
  mutable vnext : int array;
  mutable vprev : int array;
  mutable ntop : int;
  mutable nfree : int;
  (* touched locations and registers, each at most once *)
  mutable tl : int array;
  mutable ntl : int;
  mutable tv : int array;
  mutable ntv : int;
  mutable scratch : int array;
}

let create () =
  let n = 16 in
  {
    vregs = Reg.Tbl.create 64;
    regs = Reg.Tbl.create 32;
    slots = Int_tbl.create 16;
    ops = Op_tbl.create 16;
    n_vregs = 0;
    n_locs = 0;
    n_ops = 0;
    vcls = Bytes.make n '\000';
    vhead = Array.make n (-1);
    vop = Array.make n (-1);
    cnext = Array.make n (-1);
    cprev = Array.make n (-1);
    vmark = Bytes.make n '\000';
    lcls = Bytes.make n '\000';
    lhead = Array.make n (-1);
    lop = Array.make n (-1);
    lmark = Bytes.make n '\000';
    ohead = Array.make n (-1);
    nloc = Array.make n 0;
    nvreg = Array.make n 0;
    lnext = Array.make n (-1);
    lprev = Array.make n (-1);
    vnext = Array.make n (-1);
    vprev = Array.make n (-1);
    ntop = 0;
    nfree = -1;
    tl = Array.make n 0;
    ntl = 0;
    tv = Array.make n 0;
    ntv = 0;
    scratch = Array.make n 0;
  }

(* Doubling growth: [need] is the index about to be written. *)
let grown a need fill =
  let len = Array.length a in
  if need < len then a
  else
    let b = Array.make (max (need + 1) (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b

let grown_bytes b need =
  let len = Bytes.length b in
  if need < len then b
  else
    let c = Bytes.make (max (need + 1) (2 * len)) '\000' in
    Bytes.blit b 0 c 0 len;
    c

(* ------------------------------------------------------------------ *)
(* Interning.                                                          *)

let cls_code r = match Reg.cls r with Reg.Int -> '\000' | Reg.Float -> '\001'

let vreg w r =
  match Reg.Tbl.find w.vregs r with
  | i -> i
  | exception Not_found ->
      let i = w.n_vregs in
      w.n_vregs <- i + 1;
      Reg.Tbl.add w.vregs r i;
      w.vcls <- grown_bytes w.vcls i;
      Bytes.set w.vcls i (cls_code r);
      w.vhead <- grown w.vhead i (-1);
      w.vop <- grown w.vop i (-1);
      w.cnext <- grown w.cnext i (-1);
      w.cprev <- grown w.cprev i (-1);
      w.vmark <- grown_bytes w.vmark i;
      w.tv <- grown w.tv i 0;
      i

let new_loc w code =
  let i = w.n_locs in
  w.n_locs <- i + 1;
  w.lcls <- grown_bytes w.lcls i;
  Bytes.set w.lcls i code;
  w.lhead <- grown w.lhead i (-1);
  w.lop <- grown w.lop i (-1);
  w.lmark <- grown_bytes w.lmark i;
  w.tl <- grown w.tl i 0;
  i

let reg_loc w p =
  match Reg.Tbl.find w.regs p with
  | i -> i
  | exception Not_found ->
      let i = new_loc w (cls_code p) in
      Reg.Tbl.add w.regs p i;
      i

let slot_loc w s =
  match Int_tbl.find w.slots s with
  | i -> i
  | exception Not_found ->
      let i = new_loc w '\002' in
      Int_tbl.add w.slots s i;
      i

let op w o =
  match Op_tbl.find w.ops o with
  | i -> i
  | exception Not_found ->
      let i = w.n_ops in
      w.n_ops <- i + 1;
      Op_tbl.add w.ops o i;
      w.ohead <- grown w.ohead i (-1);
      i

(* ------------------------------------------------------------------ *)
(* Fact primitives.                                                    *)

let touch_loc w l =
  if Bytes.unsafe_get w.lmark l = '\000' then begin
    Bytes.unsafe_set w.lmark l '\001';
    w.tl.(w.ntl) <- l;
    w.ntl <- w.ntl + 1
  end

let touch_vreg w v =
  if Bytes.unsafe_get w.vmark v = '\000' then begin
    Bytes.unsafe_set w.vmark v '\001';
    w.tv.(w.ntv) <- v;
    w.ntv <- w.ntv + 1
  end

(* Callers guarantee [(l, v)] is not already a fact: every transfer adds
   facts only to a location or register it has just cleared. *)
let add_eq w l v =
  let n =
    if w.nfree >= 0 then (
      let n = w.nfree in
      w.nfree <- w.lnext.(n);
      n)
    else
      let n = w.ntop in
      w.ntop <- n + 1;
      if n >= Array.length w.nloc then begin
        w.nloc <- grown w.nloc n 0;
        w.nvreg <- grown w.nvreg n 0;
        w.lnext <- grown w.lnext n (-1);
        w.lprev <- grown w.lprev n (-1);
        w.vnext <- grown w.vnext n (-1);
        w.vprev <- grown w.vprev n (-1)
      end;
      n
  in
  w.nloc.(n) <- l;
  w.nvreg.(n) <- v;
  let h = w.lhead.(l) in
  w.lnext.(n) <- h;
  w.lprev.(n) <- -1;
  if h >= 0 then w.lprev.(h) <- n;
  w.lhead.(l) <- n;
  let h = w.vhead.(v) in
  w.vnext.(n) <- h;
  w.vprev.(n) <- -1;
  if h >= 0 then w.vprev.(h) <- n;
  w.vhead.(v) <- n;
  touch_loc w l;
  touch_vreg w v

let free_node w n =
  w.lnext.(n) <- w.nfree;
  w.nfree <- n

let set_const w v o =
  let h = w.ohead.(o) in
  w.vop.(v) <- o;
  w.cnext.(v) <- h;
  w.cprev.(v) <- -1;
  if h >= 0 then w.cprev.(h) <- v;
  w.ohead.(o) <- v;
  touch_vreg w v

let clear_const w v =
  let o = w.vop.(v) in
  if o >= 0 then begin
    let p = w.cprev.(v) and n = w.cnext.(v) in
    if p >= 0 then w.cnext.(p) <- n else w.ohead.(o) <- n;
    if n >= 0 then w.cprev.(n) <- p;
    w.vop.(v) <- -1
  end

let set_expr w l o =
  w.lop.(l) <- o;
  touch_loc w l

(* ------------------------------------------------------------------ *)
(* Queries and transfers.                                              *)

let holds w v l =
  let c = Bytes.unsafe_get w.lcls l in
  let rec carried n = n >= 0 && (w.nloc.(n) = l || carried w.vnext.(n)) in
  (c = '\002' || c = Bytes.unsafe_get w.vcls v)
  && (carried w.vhead.(v) || (w.lop.(l) >= 0 && w.lop.(l) = w.vop.(v)))

let kill_loc w l =
  let rec go n =
    if n >= 0 then begin
      let next = w.lnext.(n) in
      let p = w.vprev.(n) and q = w.vnext.(n) in
      if p >= 0 then w.vnext.(p) <- q else w.vhead.(w.nvreg.(n)) <- q;
      if q >= 0 then w.vprev.(q) <- p;
      free_node w n;
      go next
    end
  in
  go w.lhead.(l);
  w.lhead.(l) <- -1;
  w.lop.(l) <- -1

let kill_vreg w v =
  let rec go n =
    if n >= 0 then begin
      let next = w.vnext.(n) in
      let p = w.lprev.(n) and q = w.lnext.(n) in
      if p >= 0 then w.lnext.(p) <- q else w.lhead.(w.nloc.(n)) <- q;
      if q >= 0 then w.lprev.(q) <- p;
      free_node w n;
      go next
    end
  in
  go w.vhead.(v);
  w.vhead.(v) <- -1;
  clear_const w v

let bind_def w ~vreg ~loc =
  kill_vreg w vreg;
  kill_loc w loc;
  add_eq w loc vreg

let loc_copy w ~src ~dst =
  if src <> dst then begin
    kill_loc w dst;
    let rec go n =
      if n >= 0 then begin
        add_eq w dst w.nvreg.(n);
        go w.lnext.(n)
      end
    in
    go w.lhead.(src);
    let e = w.lop.(src) in
    if e >= 0 then set_expr w dst e
  end

let input_copy w ~dst ~src =
  if src <> dst then begin
    kill_vreg w dst;
    let rec go n =
      if n >= 0 then begin
        add_eq w w.nloc.(n) dst;
        go w.vnext.(n)
      end
    in
    go w.vhead.(src);
    let c = w.vop.(src) in
    if c >= 0 then set_const w dst c
  end

let input_const w ~vreg ~op =
  kill_vreg w vreg;
  set_const w vreg op

let remat w ~loc ~op =
  kill_loc w loc;
  let rec go v =
    if v >= 0 then begin
      add_eq w loc v;
      go w.cnext.(v)
    end
  in
  go w.ohead.(op);
  set_expr w loc op

(* ------------------------------------------------------------------ *)
(* Snapshots in and out.                                               *)

let reset w =
  for i = 0 to w.ntl - 1 do
    let l = w.tl.(i) in
    w.lhead.(l) <- -1;
    w.lop.(l) <- -1;
    Bytes.unsafe_set w.lmark l '\000'
  done;
  w.ntl <- 0;
  for i = 0 to w.ntv - 1 do
    let v = w.tv.(i) in
    w.vhead.(v) <- -1;
    let o = w.vop.(v) in
    if o >= 0 then begin
      w.ohead.(o) <- -1;
      w.vop.(v) <- -1
    end;
    Bytes.unsafe_set w.vmark v '\000'
  done;
  w.ntv <- 0;
  w.ntop <- 0;
  w.nfree <- -1

let load w s =
  reset w;
  Array.iter (fun k -> add_eq w (k lsr shift) (k land low)) s.eqs;
  Array.iter (fun k -> set_expr w (k lsr shift) (k land low)) s.exprs;
  Array.iter (fun k -> set_const w (k lsr shift) (k land low)) s.consts

let push w n k =
  if !n >= Array.length w.scratch then w.scratch <- grown w.scratch !n 0;
  w.scratch.(!n) <- k;
  incr n

(* The first [n] keys of [scratch], sorted, in an array of their own. *)
let sorted_prefix w n =
  let a = Array.sub w.scratch 0 !n in
  sort_ints a;
  n := 0;
  a

let freeze w =
  let n = ref 0 in
  for i = 0 to w.ntl - 1 do
    let l = w.tl.(i) in
    let rec go m =
      if m >= 0 then begin
        push w n (key l w.nvreg.(m));
        go w.lnext.(m)
      end
    in
    go w.lhead.(l)
  done;
  let eqs = sorted_prefix w n in
  for i = 0 to w.ntl - 1 do
    let l = w.tl.(i) in
    if w.lop.(l) >= 0 then push w n (key l w.lop.(l))
  done;
  let exprs = sorted_prefix w n in
  for i = 0 to w.ntv - 1 do
    let v = w.tv.(i) in
    if w.vop.(v) >= 0 then push w n (key v w.vop.(v))
  done;
  { eqs; exprs; consts = sorted_prefix w n }
