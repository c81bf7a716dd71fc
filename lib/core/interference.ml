module Bitset = Dataflow.Bitset
module Hier_set = Dataflow.Hier_set
module Int_vec = Dataflow.Int_vec
module Reg_index = Dataflow.Reg_index
module Reg = Iloc.Reg

(* Storage a build leaves behind for the next one: the emission words,
   in chunks of [chunk] words.  A chunk is as large as a block the minor
   heap takes, so a small routine's build puts no emission storage in
   the major heap, and the buffer grows without copying.  Chunks past
   the filled ones are [[||]] until a build reaches them. *)
type scratch = { mutable emitted : int array array }

let create_scratch () = { emitted = [||] }
let chunk_bits = 8
let chunk = 1 lsl chunk_bits

type t = {
  regs : Reg_index.t;
  pmap : int array;  (* [Reg_index.packed_map regs]; shared by copies *)
  n : int;
  adj : Int_vec.t array;
  degree : int array;
  alive : bool array;
  forward : int array;
  thresh : int array;
  mutable stamp : int array;  (* [merge]'s epoch marks; never shared *)
  mutable epoch : int;
  mutable n_edges : int;
  mutable n_alive : int;
  mutable union_edges : int;
}

let union_edges t = t.union_edges

(* Deep copy for snapshot reuse: coalescing mutates the graph in place,
   so a cached build must be copied before each allocation that consumes
   it.  [regs] and [pmap] are immutable after construction and safely
   shared; the copy gets its own merge marks. *)
let copy t =
  {
    t with
    adj = Array.map Int_vec.copy t.adj;
    degree = Array.copy t.degree;
    alive = Array.copy t.alive;
    forward = Array.copy t.forward;
    thresh = Array.copy t.thresh;
    stamp = [||];
    epoch = 0;
  }

(* The adjacency vectors are exact for alive nodes (and empty for dead
   ones), so membership is a scan of the shorter one. *)
let interfere t i j =
  i <> j
  &&
  let a = t.adj.(i) and b = t.adj.(j) in
  if Int_vec.length a <= Int_vec.length b then Int_vec.mem a j
  else Int_vec.mem b i

let packed_map t = t.pmap
let neighbors t i = Int_vec.to_list t.adj.(i)
let iter_neighbors f t i = Int_vec.iter f t.adj.(i)
let exists_neighbor f t i = Int_vec.exists f t.adj.(i)
let fold_neighbors f t i init = Int_vec.fold f t.adj.(i) init
let degree t i = t.degree.(i)
let reg t i = Reg_index.reg t.regs i
let index t r = Reg_index.index t.regs r
let index_opt t r = Reg_index.index_opt t.regs r
let n_nodes t = t.n
let n_edges t = t.n_edges
let alive t i = t.alive.(i)
let n_alive t = t.n_alive
let significant t i = t.degree.(i) >= t.thresh.(i)

let rec find t i =
  if t.alive.(i) then i
  else begin
    (* Path compression: point straight at the current representative. *)
    let r = find t t.forward.(i) in
    t.forward.(i) <- r;
    r
  end

(* Insert an edge known to be absent.  Adjacency vectors stay
   deduplicated — every caller checks membership first — so [degree] is
   always the vector's length and [n_edges] can be maintained as a
   counter instead of a fold over degrees. *)
let push_edge t i j =
  Int_vec.push t.adj.(i) j;
  Int_vec.push t.adj.(j) i;
  t.degree.(i) <- t.degree.(i) + 1;
  t.degree.(j) <- t.degree.(j) + 1;
  t.n_edges <- t.n_edges + 1

let add_edge t i j = if i <> j && not (interfere t i j) then push_edge t i j

(* Stamp [i]'s current neighbors with a fresh epoch and return it.  The
   marks live in the graph, so graphs allocated in parallel domains (and
   copies of one cached build) never share them. *)
let stamp_neighbors t i =
  if Array.length t.stamp < t.n then t.stamp <- Array.make t.n 0;
  t.epoch <- t.epoch + 1;
  let e = t.epoch and stamp = t.stamp in
  Int_vec.iter (fun y -> Array.unsafe_set stamp y e) t.adj.(i);
  e

let merge t ~keep ~drop =
  if not (t.alive.(keep) && t.alive.(drop)) then
    invalid_arg "Interference.merge: dead node";
  if keep = drop then invalid_arg "Interference.merge: keep = drop";
  (* Chaitin's in-place update: the merged node interferes with the union
     of the two neighbor sets.  [keep]'s neighbors are stamped first, so
     moving [drop]'s edges needs no membership probe: [x] gets an edge to
     [keep] exactly when it is unstamped.  The edges are visited in
     [drop]'s vector order and pushed as they come, which is the order
     an edge-set-deduplicated [add_edge] per neighbor would push them.
     [drop]'s own vector is only read here — the loop touches the
     vectors of [keep] and [x], never [drop]'s. *)
  let e = stamp_neighbors t keep in
  let stamp = t.stamp in
  Int_vec.iter
    (fun x ->
      Int_vec.remove_value t.adj.(x) drop;
      t.degree.(x) <- t.degree.(x) - 1;
      t.n_edges <- t.n_edges - 1;
      if x <> keep && Array.unsafe_get stamp x <> e then begin
        push_edge t keep x;
        t.union_edges <- t.union_edges + 1
      end)
    t.adj.(drop);
  Int_vec.clear t.adj.(drop);
  t.degree.(drop) <- 0;
  t.alive.(drop) <- false;
  t.forward.(drop) <- keep;
  t.n_alive <- t.n_alive - 1

(* Chaitin's triangular bit matrix over this many nodes is 64 MB
   (n(n-1)/2 bits), and renumbered million-instruction routines reach
   ~390k nodes, where it would need ~9.5 GB.  No build here keeps a
   matrix; the constant survives as a scale marker for benchmarks that
   want a routine past the matrix's reach. *)
let dense_node_limit = 32768

let thresholds ?k regs n =
  match k with
  | Some k -> Array.init n (fun i -> k (Reg.cls (Reg_index.reg regs i)))
  | None -> Array.make n max_int

(* A graph over [regs] whose adjacency vectors are [adj] (deduplicated,
   [degree.(i)] long) with [n_edges] edges. *)
let of_adjacency ?k regs pmap adj degree n_edges =
  let n = Array.length adj in
  {
    regs;
    pmap;
    n;
    adj;
    degree;
    alive = Array.make n true;
    forward = Array.init n (fun i -> i);
    thresh = thresholds ?k regs n;
    stamp = [||];
    epoch = 0;
    n_edges;
    n_alive = n;
    union_edges = 0;
  }

(* A graph over [regs] with no edges, for {!add_edge} to fill. *)
let empty ?k regs =
  let n = Reg_index.count regs in
  of_adjacency ?k regs (Reg_index.packed_map regs)
    (Array.init n (fun _ -> Int_vec.create ()))
    (Array.make n 0) 0

let of_edges ?k n edges =
  let t =
    empty ?k (Reg_index.of_regs (List.init n (fun i -> Reg.make i Reg.Int)))
  in
  List.iter (fun (i, j) -> add_edge t i j) edges;
  t

(* -------------------------------------------------------------------
   The arena build: a sweep that emits, then a counting scatter.

   The structured reference build (test/reference.ml) fills an {!empty}
   graph through {!add_edge}, one backward pass per block over dense
   liveness.  It pays two per-definition costs that go quadratic at the
   million-instruction tier: an O(n/64) word scan to mask the live set
   down to the defining class, and one adjacency scan per candidate
   pair.  The arena build removes both.  Phase one sweeps
   the blocks the same way, but keeps live-now in a {!Hier_set}
   (iteration O(members), not O(n/64)) and appends every candidate
   pair, with no membership check, as one word
   [(defining node lsl shift) lor live node] to the emission buffer.
   Phase two is a counting scatter: per-node emission counts size one
   array per node, a second pass over the buffer in emission order
   appends each pair to both of its endpoints' arrays, and each array is
   deduplicated in place — keeping the first occurrence of every
   neighbor, via a per-node stamp — and adopted as the node's adjacency
   vector, with the duplicates' slots left as spare capacity.

   Ordering argument: both builds visit definitions in the same order
   and, within one definition, candidates in ascending node index
   ({!Hier_set.iter}'s order and {!Bitset.iter}'s), so they emit the
   same pairs in the same order.  The reference pushes an edge (both
   adjacency entries) at the {e first} emission of its pair, so node
   [x]'s vector lists its neighbors in the order in which the pairs
   [{x,y}] were first emitted.  The scatter visits the buffer in
   emission order and drops every emission of [{x,y}] into arrays [x]
   and [y] at the same point of that order, so array [x] holds all of
   [x]'s emissions in emission order, and keeping each neighbor's first
   occurrence leaves exactly the reference's vector.  The two graphs are
   therefore byte-identical: same edge set, same per-node neighbor
   order. *)

let bits_needed v =
  let rec go b x = if x = 0 then b else go (b + 1) (x lsr 1) in
  go 0 v

(* Phase one.  [seed live b] loads block [b]'s live-out into [live];
   the sweep clears it again before the next block (O(members), via
   the summaries).  Emission [p] is word [p land (chunk - 1)] of chunk
   [p lsr chunk_bits] of [scratch.emitted]; chunks an earlier build
   left are written over, and new ones are added (the chunk table
   doubling) and left there for the next build.  Returns the shift and
   the number of words emitted. *)
let sweep n pmap (fl : Iloc.Flat.t) scratch ~cls ~seed =
  let shift = bits_needed (max (n - 1) 0) in
  let len = ref 0 and cur = ref [||] in
  let emit w =
    let o = !len land (chunk - 1) in
    if o = 0 then begin
      let c = !len lsr chunk_bits in
      if c = Array.length scratch.emitted then begin
        let grown = Array.make (max 4 (2 * c)) [||] in
        Array.blit scratch.emitted 0 grown 0 c;
        scratch.emitted <- grown
      end;
      if Array.length scratch.emitted.(c) = 0 then
        scratch.emitted.(c) <- Array.make chunk 0;
      cur := scratch.emitted.(c)
    end;
    Array.unsafe_set !cur o w;
    incr len
  in
  let live = Hier_set.create n in
  let code = fl.Iloc.Flat.code in
  let stride = Iloc.Flat.stride in
  for b = 0 to Iloc.Flat.n_blocks fl - 1 do
    seed live b;
    for slot = Iloc.Flat.block_term fl b downto Iloc.Flat.block_first fl b do
      let o = slot * stride in
      let d = Array.unsafe_get code (o + Iloc.Flat.f_dst) in
      if d >= 0 then begin
        let di = Array.unsafe_get pmap d in
        let skip =
          if Iloc.Flat.Tag.is_copy (Array.unsafe_get code (o + Iloc.Flat.f_tag))
          then Array.unsafe_get pmap (Array.unsafe_get code (o + Iloc.Flat.f_s0))
          else -1
        in
        let dc = Char.unsafe_chr (d land 1) in
        let dw = di lsl shift in
        Hier_set.iter
          (fun l ->
            if Bytes.unsafe_get cls l = dc && l <> di && l <> skip then
              emit (dw lor l))
          live;
        Hier_set.remove live di
      end;
      for sk = Iloc.Flat.f_s0 to Iloc.Flat.f_s2 do
        let p = Array.unsafe_get code (o + sk) in
        if p >= 0 then Hier_set.add live (Array.unsafe_get pmap p)
      done
    done;
    Hier_set.clear live
  done;
  (shift, !len)

(* Phase two: count, scatter, dedupe each array in place.  Both passes
   walk the [e] emitted words in order, chunk by chunk. *)
let scatter ?on_pairs ?k regs pmap n (chunks : int array array) e shift =
  let mask = (1 lsl shift) - 1 in
  let last = (e - 1) asr chunk_bits in
  let words c = min chunk (e - (c lsl chunk_bits)) - 1 in
  (* [fill.(i)] counts node [i]'s emissions, then serves as its array's
     fill pointer during the scatter, and ends as its degree. *)
  let fill = Array.make n 0 in
  for c = 0 to last do
    let a = Array.unsafe_get chunks c in
    for p = 0 to words c do
      let w = Array.unsafe_get a p in
      let d = w lsr shift and l = w land mask in
      Array.unsafe_set fill d (Array.unsafe_get fill d + 1);
      Array.unsafe_set fill l (Array.unsafe_get fill l + 1)
    done
  done;
  let rows = Array.map (fun c -> Array.make c 0) fill in
  Array.fill fill 0 n 0;
  for c = 0 to last do
    let a = Array.unsafe_get chunks c in
    for p = 0 to words c do
      let w = Array.unsafe_get a p in
      let d = w lsr shift and l = w land mask in
      let pd = Array.unsafe_get fill d and pl = Array.unsafe_get fill l in
      Array.unsafe_set (Array.unsafe_get rows d) pd l;
      Array.unsafe_set fill d (pd + 1);
      Array.unsafe_set (Array.unsafe_get rows l) pl d;
      Array.unsafe_set fill l (pl + 1)
    done
  done;
  (* [seen.(x) = i] marks [x] as already kept in row [i]. *)
  let seen = Array.make n (-1) in
  let adj =
    Array.mapi
      (fun i row ->
        let kept = ref 0 in
        for p = 0 to Array.length row - 1 do
          let x = Array.unsafe_get row p in
          if Array.unsafe_get seen x <> i then begin
            Array.unsafe_set seen x i;
            Array.unsafe_set row !kept x;
            incr kept
          end
        done;
        Array.unsafe_set fill i !kept;
        Int_vec.of_prefix row !kept)
      rows
  in
  let n_edges = Array.fold_left ( + ) 0 fill / 2 in
  (match on_pairs with
  | Some f -> f ~emitted:e ~dropped:(e - n_edges)
  | None -> ());
  let t = of_adjacency ?k regs pmap adj fill n_edges in
  (* Every mark in [seen] is below [n], so it serves as [merge]'s stamp
     array with the epochs starting at [n]. *)
  t.stamp <- seen;
  t.epoch <- n;
  t

(* Per-node register class as a byte (the packed encoding's parity),
   for the sweep's inline class filter. *)
let class_bytes regs n =
  let cls = Bytes.make (max n 1) '\000' in
  Reg_index.iter
    (fun i r -> Bytes.unsafe_set cls i (Char.unsafe_chr (Reg.hash r land 1)))
    regs;
  cls

let build_flat_boundary ?scratch ?on_pairs ?k regs (fl : Iloc.Flat.t)
    (bl : Dataflow.Liveness.Boundary.t) =
  let n = Reg_index.count regs in
  let pmap = Reg_index.packed_map regs in
  (* Boundary rows speak u-indices; node numbering speaks [regs]
     indices.  Every upward-exposed register occurs in the arena, so the
     translation is total, and seeding through it yields the live-out
     set a dense row would hold. *)
  let uindex = bl.Dataflow.Liveness.Boundary.uindex in
  let unode =
    Array.init (Reg_index.count uindex) (fun u ->
        Array.unsafe_get pmap (Reg.hash (Reg_index.reg uindex u)))
  in
  let scratch = match scratch with Some s -> s | None -> create_scratch () in
  let seed live b =
    Bitset.iter
      (fun u -> Hier_set.add live (Array.unsafe_get unode u))
      bl.Dataflow.Liveness.Boundary.live_out.(b)
  in
  let shift, e = sweep n pmap fl scratch ~cls:(class_bytes regs n) ~seed in
  scatter ?on_pairs ?k regs pmap n scratch.emitted e shift
