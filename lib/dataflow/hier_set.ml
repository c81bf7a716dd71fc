(* A bitset with a two-level occupancy summary, for sets that are both
   wide and sparse.  [Bitset.iter] pays O(capacity/64) per traversal
   even when almost nothing is set; that scan is what made the sparse
   interference build quadratic (one live-set traversal per definition,
   each O(|live ranges|/64)).  Here every leaf word has a summary bit
   one level up and every summary word a bit above that, so [iter] and
   [clear] touch only the words that actually hold members:
   O(set bits + occupied words), independent of capacity.

   Words are 32-bit groups stored in int arrays: all index arithmetic
   stays on shifts and masks (OCaml ints are 63-bit, so a 64-bit group
   would need division by 63 or boxed int64s), and the de Bruijn
   trailing-zero trick below works on plain ints.

   Operations are unchecked: callers index within the creation
   capacity, as with the unsafe_* family of [Bitset]. *)

type t = { l0 : int array; l1 : int array; l2 : int array }

let create n =
  if n < 0 then invalid_arg "Hier_set.create";
  let w0 = (n + 31) lsr 5 in
  let w1 = (w0 + 31) lsr 5 in
  let w2 = (w1 + 31) lsr 5 in
  {
    l0 = Array.make (max w0 1) 0;
    l1 = Array.make (max w1 1) 0;
    l2 = Array.make (max w2 1) 0;
  }

(* Trailing-zero count of a 32-bit value with exactly one bit set would
   need only the multiply; extracting the lowest set bit first makes it
   total on any non-zero value. *)
let debruijn32 = 0x077CB531

let ntz_tbl =
  let tbl = Array.make 32 0 in
  for k = 0 to 31 do
    tbl.((((1 lsl k) * debruijn32) land 0xFFFFFFFF) lsr 27) <- k
  done;
  tbl

let[@inline] ntz32 x =
  Array.unsafe_get ntz_tbl ((((x land -x) * debruijn32) land 0xFFFFFFFF) lsr 27)

let[@inline] add t i =
  let w = i lsr 5 in
  Array.unsafe_set t.l0 w (Array.unsafe_get t.l0 w lor (1 lsl (i land 31)));
  let w1 = w lsr 5 in
  Array.unsafe_set t.l1 w1 (Array.unsafe_get t.l1 w1 lor (1 lsl (w land 31)));
  let w2 = w1 lsr 5 in
  Array.unsafe_set t.l2 w2 (Array.unsafe_get t.l2 w2 lor (1 lsl (w1 land 31)))

(* Summary bits are cleared only when their whole group empties, so the
   summaries never under-approximate occupancy. *)
let[@inline] remove t i =
  let w = i lsr 5 in
  let v = Array.unsafe_get t.l0 w land lnot (1 lsl (i land 31)) in
  Array.unsafe_set t.l0 w v;
  if v = 0 then begin
    let w1 = w lsr 5 in
    let v1 = Array.unsafe_get t.l1 w1 land lnot (1 lsl (w land 31)) in
    Array.unsafe_set t.l1 w1 v1;
    if v1 = 0 then begin
      let w2 = w1 lsr 5 in
      Array.unsafe_set t.l2 w2
        (Array.unsafe_get t.l2 w2 land lnot (1 lsl (w1 land 31)))
    end
  end

let iter f t =
  let l2 = t.l2 and l1 = t.l1 and l0 = t.l0 in
  for w2 = 0 to Array.length l2 - 1 do
    let b2 = ref (Array.unsafe_get l2 w2) in
    while !b2 <> 0 do
      let w1 = (w2 lsl 5) + ntz32 !b2 in
      b2 := !b2 land (!b2 - 1);
      let b1 = ref (Array.unsafe_get l1 w1) in
      while !b1 <> 0 do
        let w0 = (w1 lsl 5) + ntz32 !b1 in
        b1 := !b1 land (!b1 - 1);
        let base = w0 lsl 5 in
        let b0 = ref (Array.unsafe_get l0 w0) in
        while !b0 <> 0 do
          f (base + ntz32 !b0);
          b0 := !b0 land (!b0 - 1)
        done
      done
    done
  done

let clear t =
  let l2 = t.l2 and l1 = t.l1 and l0 = t.l0 in
  for w2 = 0 to Array.length l2 - 1 do
    let b2 = ref (Array.unsafe_get l2 w2) in
    if !b2 <> 0 then begin
      Array.unsafe_set l2 w2 0;
      while !b2 <> 0 do
        let w1 = (w2 lsl 5) + ntz32 !b2 in
        b2 := !b2 land (!b2 - 1);
        let b1 = ref (Array.unsafe_get l1 w1) in
        Array.unsafe_set l1 w1 0;
        while !b1 <> 0 do
          Array.unsafe_set l0 ((w1 lsl 5) + ntz32 !b1) 0;
          b1 := !b1 land (!b1 - 1)
        done
      done
    end
  done
