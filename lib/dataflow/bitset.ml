(* Word-parallel dense bitsets.

   Bits live in a [Bytes.t] padded to a whole number of 64-bit words.
   Bulk operations — union/inter/diff, equality, emptiness, popcount —
   run a machine word at a time through the unaligned-access primitives
   below; single-bit operations touch one byte, so they need neither a
   division nor an int64 box.  [iter]/[fold] skip all-zero words with one
   64-bit compare and then scan only the set bits of non-zero bytes with
   lsb extraction, instead of testing all 8 positions of every byte.

   Representation invariant: every bit at index >= capacity is zero.
   [create] and [slab] establish it; [add] is range-checked; the binops
   preserve it because both operands satisfy it (for [diff_into],
   [lnot src] has ones in the padding but [dst] has zeros there).  The
   invariant is what lets [equal], [cardinal] and [is_empty] work on
   whole words without masking. *)

external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* [off] is a byte offset into [words], always a multiple of 8, so that
   many rows can share one backing buffer (see [slab]) while every loop
   below still walks whole aligned 64-bit words.  A plain [create]d set
   has [off = 0]. *)
type t = { words : Bytes.t; off : int; capacity : int }

(* Number of bytes of [t.words] actually used for [capacity] bits; a
   [slab] row may sit in a larger buffer, so loops must bound themselves
   by this, never by [Bytes.length]. *)
let used_bytes capacity = ((capacity + 63) lsr 6) * 8

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  { words = Bytes.make (used_bytes capacity) '\000'; off = 0; capacity }

(* One backing buffer for [rows] sets of [capacity] bits each.  Large
   liveness problems allocate rows*used_bytes bytes here in a single
   major-heap block instead of [rows] separate minor-heap Bytes.
   [buf], when given, is an earlier slab whose rows are no longer in
   use: its backing buffer is cleared and recycled when large enough,
   so a per-round recomputation stops churning the major heap once the
   problem size plateaus. *)
let slab ?buf ~rows ~capacity () =
  if rows < 0 || capacity < 0 then invalid_arg "Bitset.slab";
  let nb = used_bytes capacity in
  let need = rows * nb in
  let words =
    match buf with
    | Some prev
      when Array.length prev > 0
           && prev.(0).off = 0
           && Bytes.length prev.(0).words >= need ->
        let w = prev.(0).words in
        Bytes.fill w 0 need '\000';
        w
    | _ -> Bytes.make need '\000'
  in
  Array.init rows (fun r -> { words; off = r * nb; capacity })

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then
    invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.capacity)

let unsafe_add t i =
  let byte = t.off + (i lsr 3) in
  let b = Char.code (Bytes.unsafe_get t.words byte) in
  Bytes.unsafe_set t.words byte (Char.unsafe_chr (b lor (1 lsl (i land 7))))

let unsafe_remove t i =
  let byte = t.off + (i lsr 3) in
  let b = Char.code (Bytes.unsafe_get t.words byte) in
  Bytes.unsafe_set t.words byte
    (Char.unsafe_chr (b land lnot (1 lsl (i land 7))))

let unsafe_mem t i =
  Char.code (Bytes.unsafe_get t.words (t.off + (i lsr 3)))
  land (1 lsl (i land 7))
  <> 0

let add t i =
  check t i;
  unsafe_add t i

let remove t i =
  check t i;
  unsafe_remove t i

let mem t i =
  check t i;
  unsafe_mem t i

let is_empty t =
  let n = t.off + used_bytes t.capacity in
  let rec go o = o >= n || (Int64.equal (unsafe_get_64 t.words o) 0L && go (o + 8)) in
  go t.off

(* Straight-line SWAR popcount; ocamlopt keeps the intermediate int64s
   unboxed.  The final byte-sum multiply truncates to 63 bits, which is
   harmless: the count (<= 64) lives in bits 56..62. *)
let[@inline] popcount64 (x : int64) =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add
      (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56) land 0x7f

let cardinal t =
  let n = t.off + used_bytes t.capacity in
  let c = ref 0 in
  let o = ref t.off in
  while !o < n do
    c := !c + popcount64 (unsafe_get_64 t.words !o);
    o := !o + 8
  done;
  !c

let clear t = Bytes.fill t.words t.off (used_bytes t.capacity) '\000'

let copy t =
  let nb = used_bytes t.capacity in
  let words = Bytes.make nb '\000' in
  Bytes.blit t.words t.off words 0 nb;
  { words; off = 0; capacity = t.capacity }

let assign ~dst src =
  if dst.capacity <> src.capacity then
    invalid_arg "Bitset.assign: capacity mismatch";
  Bytes.blit src.words src.off dst.words dst.off (used_bytes src.capacity)

let equal a b =
  a.capacity = b.capacity
  &&
  let n = used_bytes a.capacity in
  let rec go o =
    o >= n
    || (Int64.equal
          (unsafe_get_64 a.words (a.off + o))
          (unsafe_get_64 b.words (b.off + o))
       && go (o + 8))
  in
  go 0

let same_capacity a b op =
  if a.capacity <> b.capacity then
    invalid_arg (Printf.sprintf "Bitset.%s: capacity mismatch" op)

(* The three binops share this shape; writing them out keeps the int64
   combining operation a known primitive, so each loop body is a pair of
   64-bit loads, one ALU op and a conditional store. *)

let union_into ~dst src =
  same_capacity dst src "union_into";
  let n = used_bytes dst.capacity in
  let changed = ref false in
  let o = ref 0 in
  while !o < n do
    let old = unsafe_get_64 dst.words (dst.off + !o) in
    let v = Int64.logor old (unsafe_get_64 src.words (src.off + !o)) in
    if not (Int64.equal v old) then begin
      unsafe_set_64 dst.words (dst.off + !o) v;
      changed := true
    end;
    o := !o + 8
  done;
  !changed

let inter_into ~dst src =
  same_capacity dst src "inter_into";
  let n = used_bytes dst.capacity in
  let changed = ref false in
  let o = ref 0 in
  while !o < n do
    let old = unsafe_get_64 dst.words (dst.off + !o) in
    let v = Int64.logand old (unsafe_get_64 src.words (src.off + !o)) in
    if not (Int64.equal v old) then begin
      unsafe_set_64 dst.words (dst.off + !o) v;
      changed := true
    end;
    o := !o + 8
  done;
  !changed

let diff_into ~dst src =
  same_capacity dst src "diff_into";
  let n = used_bytes dst.capacity in
  let changed = ref false in
  let o = ref 0 in
  while !o < n do
    let old = unsafe_get_64 dst.words (dst.off + !o) in
    let v = Int64.logand old (Int64.lognot (unsafe_get_64 src.words (src.off + !o))) in
    if not (Int64.equal v old) then begin
      unsafe_set_64 dst.words (dst.off + !o) v;
      changed := true
    end;
    o := !o + 8
  done;
  !changed

(* Trailing-zero count of a byte, tabulated once (ntz8.(0) unused). *)
let ntz8 =
  let tbl = Array.make 256 0 in
  for b = 1 to 255 do
    let rec go k = if b land (1 lsl k) <> 0 then k else go (k + 1) in
    tbl.(b) <- go 0
  done;
  tbl

let iter f t =
  let n = t.off + used_bytes t.capacity in
  let o = ref t.off in
  while !o < n do
    if not (Int64.equal (unsafe_get_64 t.words !o) 0L) then
      for byte = !o to !o + 7 do
        let b = ref (Char.code (Bytes.unsafe_get t.words byte)) in
        if !b <> 0 then begin
          let base = (byte - t.off) lsl 3 in
          while !b <> 0 do
            f (base + Array.unsafe_get ntz8 !b);
            b := !b land (!b - 1)
          done
        end
      done;
    o := !o + 8
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity l =
  let t = create capacity in
  List.iter (add t) l;
  t

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (elements t)))
