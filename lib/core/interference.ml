module Bitset = Dataflow.Bitset
module Hash_set = Dataflow.Hash_set
module Hier_set = Dataflow.Hier_set
module Int_vec = Dataflow.Int_vec
module Reg_index = Dataflow.Reg_index
module Reg = Iloc.Reg
module Instr = Iloc.Instr

(* The build-time edge set: the triangular bit matrix, or a set of
   triangular indices above [dense_node_limit].  It only deduplicates
   the incremental builders' insertions; once a build returns, the
   adjacency vectors are the graph and nothing reads or writes a set. *)
type edges = Dense of Bitset.t | Sparse of Hash_set.t

(* Storage a build leaves behind for the next one: the dense builder's
   bit matrix and the batched builder's emission words. *)
type scratch = { mutable matrix : Bitset.t option; mutable emitted : int array }

let create_scratch () = { matrix = None; emitted = [||] }

type t = {
  regs : Reg_index.t;
  pmap : int array;  (* [Reg_index.packed_map regs]; shared by copies *)
  n : int;
  adj : Int_vec.t array;
  degree : int array;
  alive : bool array;
  forward : int array;
  thresh : int array;
  sig_nb : int array;
  mutable stamp : int array;  (* [merge]'s epoch marks; never shared *)
  mutable epoch : int;
  mutable n_edges : int;
  mutable n_alive : int;
  mutable union_edges : int;
}

(* Triangular index for an unordered pair (i <> j).  For i, j < n the
   result is < n(n-1)/2 = the dense matrix capacity, so dense accesses
   below use the unchecked bitset operations. *)
let tri i j =
  let hi, lo = if i > j then (i, j) else (j, i) in
  (hi * (hi - 1) / 2) + lo

let edge_mem edges i j =
  match edges with
  | Dense m -> Bitset.unsafe_mem m (tri i j)
  | Sparse h -> Hash_set.mem h (tri i j)

let edge_add edges i j =
  match edges with
  | Dense m -> Bitset.unsafe_add m (tri i j)
  | Sparse h -> Hash_set.add h (tri i j)

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
    sig_nb = Array.copy t.sig_nb;
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
let sig_neighbors t i = t.sig_nb.(i)

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
   counter instead of a fold over degrees.

   [sig_nb] is kept exact under every mutation: inserting or deleting an
   edge adjusts the two endpoints for each other's significance, and an
   endpoint whose own degree change moved it across its threshold
   propagates the flip to its (other) current neighbors.  Degrees move
   by one per edge operation, so at most one flip per endpoint per
   operation. *)
let push_edge t i j =
  let was_i = significant t i and was_j = significant t j in
  Int_vec.push t.adj.(i) j;
  Int_vec.push t.adj.(j) i;
  t.degree.(i) <- t.degree.(i) + 1;
  t.degree.(j) <- t.degree.(j) + 1;
  t.n_edges <- t.n_edges + 1;
  if (not was_i) && significant t i then
    Int_vec.iter
      (fun x -> if x <> j then t.sig_nb.(x) <- t.sig_nb.(x) + 1)
      t.adj.(i);
  if (not was_j) && significant t j then
    Int_vec.iter
      (fun x -> if x <> i then t.sig_nb.(x) <- t.sig_nb.(x) + 1)
      t.adj.(j);
  if significant t j then t.sig_nb.(i) <- t.sig_nb.(i) + 1;
  if significant t i then t.sig_nb.(j) <- t.sig_nb.(j) + 1

(* The builders' insertion: deduplicated by the build-time edge set. *)
let add_built edges t i j =
  if i <> j && not (edge_mem edges i j) then begin
    edge_add edges i j;
    push_edge t i j
  end

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
     vectors of [keep] and [x], never [drop]'s.

     [drop]'s degree (hence significance) is frozen during the loop: its
     pre-merge contribution to each neighbor's significant count is
     retired edge by edge, and flips are only processed for the
     surviving side, so [sig_nb] is exact for every alive node when the
     loop ends. *)
  let e = stamp_neighbors t keep in
  let stamp = t.stamp in
  let drop_was_sig = significant t drop in
  Int_vec.iter
    (fun x ->
      Int_vec.remove_value t.adj.(x) drop;
      let was_x = significant t x in
      t.degree.(x) <- t.degree.(x) - 1;
      t.n_edges <- t.n_edges - 1;
      if drop_was_sig then t.sig_nb.(x) <- t.sig_nb.(x) - 1;
      if was_x && not (significant t x) then
        Int_vec.iter (fun y -> t.sig_nb.(y) <- t.sig_nb.(y) - 1) t.adj.(x);
      if x <> keep && Array.unsafe_get stamp x <> e then begin
        push_edge t keep x;
        t.union_edges <- t.union_edges + 1
      end)
    t.adj.(drop);
  Int_vec.clear t.adj.(drop);
  t.degree.(drop) <- 0;
  t.sig_nb.(drop) <- 0;
  t.alive.(drop) <- false;
  t.forward.(drop) <- keep;
  t.n_alive <- t.n_alive - 1

(* Above this node count the triangular matrix goes quadratic in memory
   (32768 nodes is a 64 MB matrix; renumbered million-instruction
   routines reach ~390k nodes, which would need ~9.5 GB) while the edge
   count stays near-linear in code size, so larger graphs keep their
   edges in an open-addressing set of triangular indices instead.  Both
   representations answer membership identically, so graph construction
   is byte-for-byte unaffected by the switch. *)
let dense_node_limit = 32768

let thresholds ?k regs n =
  match k with
  | Some k -> Array.init n (fun i -> k (Reg.cls (Reg_index.reg regs i)))
  | None -> Array.make n max_int

(* A graph with no edges over [regs], plus the edge set that
   deduplicates the incremental builders' insertions. *)
let make ?scratch ?k regs pmap n =
  let edges =
    if n > dense_node_limit then
      (* Size for the suite's ~16 average neighbors (8n edges) at 3/4
         load; the table still grows if the graph is denser. *)
      Sparse (Hash_set.create ~cap:(12 * n) ())
    else
      let bits = n * (n - 1) / 2 in
      (* Recycle the scratch matrix (cleared) when it is big enough, and
         leave the newest, largest one behind for the next build; the
         previous round's graph never reads its matrix again. *)
      let m =
        match scratch with
        | Some { matrix = Some buf; _ } -> (
            match Bitset.view buf bits with
            | Some m -> m
            | None -> Bitset.create bits)
        | Some { matrix = None; _ } | None -> Bitset.create bits
      in
      Option.iter (fun s -> s.matrix <- Some m) scratch;
      Dense m
  in
  let t =
    {
      regs;
      pmap;
      n;
      (* Pre-size for the typical degree so the build loop's pushes rarely
         grow: allocator graphs on the suite average ~16 neighbors. *)
      adj = Array.init n (fun _ -> Int_vec.create ~cap:16 ());
      degree = Array.make n 0;
      alive = Array.make n true;
      forward = Array.init n (fun i -> i);
      thresh = thresholds ?k regs n;
      sig_nb = Array.make n 0;
      stamp = [||];
      epoch = 0;
      n_edges = 0;
      n_alive = n;
      union_edges = 0;
    }
  in
  (t, edges)

let of_edges ?k n edges =
  let regs =
    Reg_index.of_regs (List.init n (fun i -> Reg.make i Reg.Int))
  in
  let t, set = make ?k regs (Reg_index.packed_map regs) n in
  List.iter (fun (i, j) -> add_built set t i j) edges;
  t

let build ?k (cfg : Iloc.Cfg.t) (live : Dataflow.Liveness.t) =
  let regs = live.Dataflow.Liveness.regs in
  let n = Reg_index.count regs in
  let t, set = make ?k regs (Reg_index.packed_map regs) n in
  (* Edges only connect registers of the same class, so instead of a
     class lookup per live bit the defining register's candidates are
     narrowed word-parallel: live_now ∩ class-mask, then the iteration
     touches exactly the indices that can get an edge. *)
  let int_mask = Bitset.create n and float_mask = Bitset.create n in
  for i = 0 to n - 1 do
    match Reg.cls (Reg_index.reg regs i) with
    | Reg.Int -> Bitset.unsafe_add int_mask i
    | Reg.Float -> Bitset.unsafe_add float_mask i
  done;
  let candidates = Bitset.create n in
  Iloc.Cfg.iter_blocks
    (fun b ->
      let live_now = Bitset.copy live.Dataflow.Liveness.live_out.(b.id) in
      let step (i : Instr.t) =
        (match i.Instr.dst with
        | Some d ->
            let di = Reg_index.index regs d in
            let skip =
              (* Copies: the new value and the copied value may share a
                 register, so no edge between them (enables coalescing).
                 -1 never equals a live index. *)
              if Instr.is_copy i then Reg_index.index regs i.Instr.srcs.(0)
              else -1
            in
            Bitset.assign ~dst:candidates live_now;
            ignore
              (Bitset.inter_into ~dst:candidates
                 (match Reg.cls d with
                 | Reg.Int -> int_mask
                 | Reg.Float -> float_mask));
            Bitset.iter
              (fun l -> if l <> di && l <> skip then add_built set t di l)
              candidates;
            Bitset.unsafe_remove live_now di
        | None -> ());
        List.iter
          (fun u -> Bitset.unsafe_add live_now (Reg_index.index regs u))
          (Instr.uses i)
      in
      step b.term;
      List.iter step (List.rev b.body))
    cfg;
  t

(* -------------------------------------------------------------------
   Batched construction (the sparse-regime build path).

   The incremental builders above pay two per-definition costs that go
   quadratic at the million-instruction tier: an O(n/64) word scan to
   mask the live set down to the defining class, and one edge-set
   membership probe per candidate pair.  The batched builder removes
   both.  Phase one sweeps the blocks exactly like the incremental
   pass, but keeps live-now in a {!Hier_set} (iteration O(members),
   not O(n/64)) and appends every candidate pair, with no membership
   check, as one word [(defining node lsl shift) lor live node] to a
   flat emission buffer.  Phase two is a counting scatter: per-node
   emission counts size one transient CSR row per node, a second pass
   over the buffer in emission order appends each pair to both of its
   endpoints' rows, and each row is deduplicated in place — keeping the
   first occurrence of every neighbor, via a per-node stamp — and
   copied into an exactly sized adjacency vector.  The
   significant-neighbor counts are then read off the vectors.

   Ordering argument: both passes visit definitions in the same order
   and, within one definition, candidates in ascending node index
   ({!Hier_set.iter}'s order and {!Bitset.iter}'s), so they emit the
   same pairs in the same order.  The incremental pass inserts an edge
   (and pushes both adjacency entries) at the {e first} emission of its
   pair, so node [x]'s vector lists its neighbors in the order in which the
   pairs [{x,y}] were first emitted.  The scatter visits the buffer in
   emission order and drops every emission of [{x,y}] into rows [x]
   and [y] at the same point of that order, so row [x] holds all of
   [x]'s emissions in emission order, and keeping each neighbor's first
   occurrence leaves exactly the incremental vector.  The two graphs
   are therefore byte-identical: same edge set, same per-node neighbor
   order. *)

let bits_needed v =
  let rec go b x = if x = 0 then b else go (b + 1) (x lsr 1) in
  go 0 v

(* Phase one.  [seed live b] loads block [b]'s live-out into [live];
   the sweep clears it again before the next block (O(members), via
   the summaries).  The emission buffer is [scratch.emitted], grown by
   doubling and replaced in [scratch] at once (the outgrown array is
   garbage while its successor fills), then left there for the next
   build; returns the shift and the number of words emitted. *)
let batched_sweep n pmap (fl : Iloc.Flat.t) scratch ~cls ~seed =
  let shift = bits_needed (max (n - 1) 0) in
  let len = ref 0 in
  let emit w =
    if !len = Array.length scratch.emitted then begin
      let grown = Array.make (max 1024 (2 * !len)) 0 in
      Array.blit scratch.emitted 0 grown 0 !len;
      scratch.emitted <- grown
    end;
    Array.unsafe_set scratch.emitted !len w;
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

(* Phase two: count, scatter, dedupe each row. *)
let finish_batched ?on_pairs ?k regs pmap n (words : int array) e shift =
  let mask = (1 lsl shift) - 1 in
  (* [ends.(i + 1)] counts node [i]'s emissions; the prefix sum turns
     [ends.(i)] into row [i]'s start, and the scatter advances it to the
     row's end, which is row [i + 1]'s start. *)
  let ends = Array.make (n + 1) 0 in
  for p = 0 to e - 1 do
    let w = Array.unsafe_get words p in
    let d = (w lsr shift) + 1 and l = (w land mask) + 1 in
    Array.unsafe_set ends d (Array.unsafe_get ends d + 1);
    Array.unsafe_set ends l (Array.unsafe_get ends l + 1)
  done;
  for i = 1 to n do
    Array.unsafe_set ends i (Array.unsafe_get ends i + Array.unsafe_get ends (i - 1))
  done;
  let rows = Array.make (2 * e) 0 in
  for p = 0 to e - 1 do
    let w = Array.unsafe_get words p in
    let d = w lsr shift and l = w land mask in
    let pd = Array.unsafe_get ends d and pl = Array.unsafe_get ends l in
    Array.unsafe_set rows pd l;
    Array.unsafe_set ends d (pd + 1);
    Array.unsafe_set rows pl d;
    Array.unsafe_set ends l (pl + 1)
  done;
  (* Row [i] now spans [ends.(i - 1)] (0 for the first) to [ends.(i)].
     [seen.(x) = i] marks [x] as already kept in row [i]. *)
  let seen = Array.make n (-1) in
  let degree = Array.make n 0 in
  let adj =
    Array.init n (fun i ->
        let lo = if i = 0 then 0 else Array.unsafe_get ends (i - 1) in
        let hi = Array.unsafe_get ends i in
        let kept = ref lo in
        for p = lo to hi - 1 do
          let x = Array.unsafe_get rows p in
          if Array.unsafe_get seen x <> i then begin
            Array.unsafe_set seen x i;
            Array.unsafe_set rows !kept x;
            incr kept
          end
        done;
        let deg = !kept - lo in
        Array.unsafe_set degree i deg;
        let v = Int_vec.create ~cap:deg () in
        for p = lo to !kept - 1 do
          Int_vec.push v (Array.unsafe_get rows p)
        done;
        v)
  in
  let n_edges = Array.fold_left ( + ) 0 degree / 2 in
  (match on_pairs with
  | Some f -> f ~emitted:e ~dropped:(e - n_edges)
  | None -> ());
  let thresh = thresholds ?k regs n in
  let sig_nb = Array.make n 0 in
  (match k with
  | None -> ()  (* thresholds are max_int: no node is ever significant *)
  | Some _ ->
      let s = Bytes.make (max n 1) '\000' in
      for i = 0 to n - 1 do
        if Array.unsafe_get degree i >= Array.unsafe_get thresh i then
          Bytes.unsafe_set s i '\001'
      done;
      for i = 0 to n - 1 do
        Array.unsafe_set sig_nb i
          (Int_vec.fold
             (fun x acc ->
               if Bytes.unsafe_get s x <> '\000' then acc + 1 else acc)
             (Array.unsafe_get adj i) 0)
      done);
  {
    regs;
    pmap;
    n;
    adj;
    degree;
    alive = Array.make n true;
    forward = Array.init n (fun i -> i);
    thresh;
    sig_nb;
    stamp = [||];
    epoch = 0;
    n_edges;
    n_alive = n;
    union_edges = 0;
  }

(* Per-node register class as a byte (the packed encoding's parity),
   for the batched sweep's inline class filter. *)
let class_bytes regs n =
  let cls = Bytes.make (max n 1) '\000' in
  Reg_index.iter
    (fun i r -> Bytes.unsafe_set cls i (Char.unsafe_chr (Reg.hash r land 1)))
    regs;
  cls

let build_flat_boundary ?scratch ?batch ?on_pairs ?k regs
    (fl : Iloc.Flat.t) (bl : Dataflow.Liveness.Boundary.t) =
  let n = Reg_index.count regs in
  let batch = match batch with Some b -> b | None -> n > dense_node_limit in
  let pmap = Reg_index.packed_map regs in
  if batch then begin
    let uindex = bl.Dataflow.Liveness.Boundary.uindex in
    let unode =
      Array.init (Reg_index.count uindex) (fun u ->
          Array.unsafe_get pmap (Reg.hash (Reg_index.reg uindex u)))
    in
    let scratch =
      match scratch with Some s -> s | None -> create_scratch ()
    in
    let seed hl b =
      Bitset.iter
        (fun u -> Hier_set.add hl (Array.unsafe_get unode u))
        bl.Dataflow.Liveness.Boundary.live_out.(b)
    in
    let shift, e =
      batched_sweep n pmap fl scratch ~cls:(class_bytes regs n) ~seed
    in
    finish_batched ?on_pairs ?k regs pmap n scratch.emitted e shift
  end
  else begin
  let t, set = make ?scratch ?k regs pmap n in
  let emitted = ref 0 in
  let int_mask = Bitset.create n and float_mask = Bitset.create n in
  Reg_index.iter
    (fun i r ->
      match Reg.cls r with
      | Reg.Int -> Bitset.unsafe_add int_mask i
      | Reg.Float -> Bitset.unsafe_add float_mask i)
    regs;
  let candidates = Bitset.create n in
  let live_now = Bitset.create n in
  (* Boundary rows speak u-indices; node numbering speaks [regs]
     indices.  Every upward-exposed register occurs in the arena, so the
     translation is total. *)
  let uindex = bl.Dataflow.Liveness.Boundary.uindex in
  let unode =
    Array.init (Reg_index.count uindex) (fun u ->
        Array.unsafe_get pmap (Reg.hash (Reg_index.reg uindex u)))
  in
  let code = fl.Iloc.Flat.code in
  let stride = Iloc.Flat.stride in
  for b = 0 to Iloc.Flat.n_blocks fl - 1 do
    let lout = bl.Dataflow.Liveness.Boundary.live_out.(b) in
    (* Seeding through [unode] yields the same live_now bit-set the
       dense row would assign: live_out can only mention upward-exposed
       registers, so nothing is lost to the |U|-compression. *)
    Bitset.iter
      (fun u -> Bitset.unsafe_add live_now (Array.unsafe_get unode u))
      lout;
    let first = Iloc.Flat.block_first fl b in
    let term = Iloc.Flat.block_term fl b in
    for slot = term downto first do
      let o = slot * stride in
      let d = Array.unsafe_get code (o + Iloc.Flat.f_dst) in
      if d >= 0 then begin
        let di = Array.unsafe_get pmap d in
        let skip =
          if Iloc.Flat.Tag.is_copy (Array.unsafe_get code (o + Iloc.Flat.f_tag))
          then Array.unsafe_get pmap (Array.unsafe_get code (o + Iloc.Flat.f_s0))
          else -1
        in
        Bitset.assign ~dst:candidates live_now;
        ignore
          (Bitset.inter_into ~dst:candidates
             (if d land 1 = 0 then int_mask else float_mask));
        Bitset.iter
          (fun l ->
            if l <> di && l <> skip then begin
              incr emitted;
              add_built set t di l
            end)
          candidates;
        Bitset.unsafe_remove live_now di
      end;
      for sk = Iloc.Flat.f_s0 to Iloc.Flat.f_s2 do
        let p = Array.unsafe_get code (o + sk) in
        if p >= 0 then Bitset.unsafe_add live_now (Array.unsafe_get pmap p)
      done
    done;
    (* Clear live_now in O(block) rather than O(n/64): everything it can
       hold is either a seeded live-out bit or an operand of this block,
       and removing a clear bit is a no-op. *)
    for slot = first to term do
      let o = slot * stride in
      for fd = Iloc.Flat.f_dst to Iloc.Flat.f_s2 do
        let p = Array.unsafe_get code (o + fd) in
        if p >= 0 then Bitset.unsafe_remove live_now (Array.unsafe_get pmap p)
      done
    done;
    Bitset.iter
      (fun u -> Bitset.unsafe_remove live_now (Array.unsafe_get unode u))
      lout
  done;
  (match on_pairs with
  | Some f ->
      (* [add_edge] deduplicated at insertion: unique pairs = n_edges. *)
      f ~emitted:!emitted ~dropped:(!emitted - t.n_edges)
  | None -> ());
  t
  end
