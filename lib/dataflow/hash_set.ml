(* Open-addressing set of non-negative ints.  Slots store [key + 2] so
   that 0 can mean "empty" and 1 "tombstone" without boxing an option;
   probing is linear from a Fibonacci-mixed home slot.  Everything is
   deterministic — no randomized seed — so data structures built on it
   (the sparse interference edge set) keep the allocator's byte-for-byte
   reproducibility. *)

type t = {
  mutable slots : int array;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable live : int;  (* stored keys *)
  mutable used : int;  (* stored keys + tombstones *)
}

let fib = 0x2545F4914F6CDD1D

let[@inline] home t k =
  let h = (k + 2) * fib in
  let h = h lxor (h lsr 29) in
  h land t.mask

let rec pow2_at_least c n = if c >= n then c else pow2_at_least (c * 2) n

let create ?(cap = 16) () =
  let c = pow2_at_least 16 cap in
  { slots = Array.make c 0; mask = c - 1; live = 0; used = 0 }

let cardinal t = t.live
let capacity t = t.mask + 1
let tombstones t = t.used - t.live

let mem t k =
  if k < 0 then invalid_arg "Hash_set.mem: negative key";
  let slots = t.slots and mask = t.mask in
  let v = k + 2 in
  let i = ref (home t k) in
  let res = ref false in
  let continue = ref true in
  while !continue do
    let s = Array.unsafe_get slots !i in
    if s = v then begin
      res := true;
      continue := false
    end
    else if s = 0 then continue := false
    else i := (!i + 1) land mask
  done;
  !res

(* Reinsertion into a tombstone-free table: stop at the first empty
   slot.  Used only by [rehash], which starts from a fresh array. *)
let insert_fresh t v =
  let slots = t.slots and mask = t.mask in
  let i = ref ((let h = v * fib in (h lxor (h lsr 29)) land mask)) in
  while Array.unsafe_get slots !i <> 0 do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set slots !i v

let rehash t cap =
  let old = t.slots in
  t.slots <- Array.make cap 0;
  t.mask <- cap - 1;
  t.used <- t.live;
  Array.iter (fun s -> if s >= 2 then insert_fresh t s) old

let add t k =
  if k < 0 then invalid_arg "Hash_set.add: negative key";
  (* Keep load (keys + tombstones) under 3/4 so probes stay short. *)
  if 4 * (t.used + 1) > 3 * (t.mask + 1) then
    rehash t
      (if 2 * t.live >= t.mask + 1 then 2 * (t.mask + 1) else t.mask + 1);
  let slots = t.slots and mask = t.mask in
  let v = k + 2 in
  let i = ref (home t k) in
  let grave = ref (-1) in
  let continue = ref true in
  while !continue do
    let s = Array.unsafe_get slots !i in
    if s = v then begin
      grave := -2;
      continue := false (* already present *)
    end
    else if s = 0 then continue := false
    else begin
      if s = 1 && !grave = -1 then grave := !i;
      i := (!i + 1) land mask
    end
  done;
  if !grave <> -2 then begin
    t.live <- t.live + 1;
    if !grave >= 0 then Array.unsafe_set slots !grave v
    else begin
      Array.unsafe_set slots !i v;
      t.used <- t.used + 1
    end
  end

let remove t k =
  if k < 0 then invalid_arg "Hash_set.remove: negative key";
  let slots = t.slots and mask = t.mask in
  let v = k + 2 in
  let i = ref (home t k) in
  let continue = ref true in
  while !continue do
    let s = Array.unsafe_get slots !i in
    if s = v then begin
      Array.unsafe_set slots !i 1;
      t.live <- t.live - 1;
      continue := false
    end
    else if s = 0 then continue := false
    else i := (!i + 1) land mask
  done

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) 0;
  t.live <- 0;
  t.used <- 0

let iter f t =
  Array.iter (fun s -> if s >= 2 then f (s - 2)) t.slots
