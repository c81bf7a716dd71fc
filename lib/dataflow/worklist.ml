module Heap = struct
  type t = {
    mutable metric : float array;
    mutable deg : int array;
    mutable node : int array;
    mutable size : int;
  }

  let create ?(cap = 16) () =
    let cap = max cap 1 in
    {
      metric = Array.make cap 0.;
      deg = Array.make cap 0;
      node = Array.make cap 0;
      size = 0;
    }

  let length t = t.size
  let is_empty t = t.size = 0
  let clear t = t.size <- 0

  (* Lexicographic heap order: metric ascending, then degree descending,
     then node index ascending — exactly the spill-candidate preference of
     the naive O(n) rescan (cheapest metric; among ties the candidate that
     unblocks the most neighbors; among those the first node). *)
  let before t i j =
    t.metric.(i) < t.metric.(j)
    || (t.metric.(i) = t.metric.(j)
       && (t.deg.(i) > t.deg.(j)
          || (t.deg.(i) = t.deg.(j) && t.node.(i) < t.node.(j))))

  let swap t i j =
    let m = t.metric.(i) in
    t.metric.(i) <- t.metric.(j);
    t.metric.(j) <- m;
    let d = t.deg.(i) in
    t.deg.(i) <- t.deg.(j);
    t.deg.(j) <- d;
    let v = t.node.(i) in
    t.node.(i) <- t.node.(j);
    t.node.(j) <- v

  let grow t =
    let cap = 2 * Array.length t.metric in
    let metric = Array.make cap 0. in
    Array.blit t.metric 0 metric 0 t.size;
    t.metric <- metric;
    let deg = Array.make cap 0 in
    Array.blit t.deg 0 deg 0 t.size;
    t.deg <- deg;
    let node = Array.make cap 0 in
    Array.blit t.node 0 node 0 t.size;
    t.node <- node

  let push t ~metric ~deg node =
    if t.size = Array.length t.metric then grow t;
    t.metric.(t.size) <- metric;
    t.deg.(t.size) <- deg;
    t.node.(t.size) <- node;
    let i = ref t.size in
    t.size <- t.size + 1;
    while !i > 0 && before t !i ((!i - 1) / 2) do
      swap t !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop t =
    if t.size = 0 then None
    else begin
      let metric = t.metric.(0) and deg = t.deg.(0) and node = t.node.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        swap t 0 t.size;
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let best = ref !i in
          if l < t.size && before t l !best then best := l;
          if r < t.size && before t r !best then best := r;
          if !best = !i then continue := false
          else begin
            swap t !i !best;
            i := !best
          end
        done
      end;
      Some (metric, deg, node)
    end
end

module Buckets = struct
  type t = {
    buckets : Int_vec.t array;
    mutable min : int;  (** lower bound on the smallest nonempty key *)
    mutable count : int;
  }

  let create ~keys =
    {
      buckets = Array.init (max keys 1) (fun _ -> Int_vec.create ());
      min = max keys 1;
      count = 0;
    }

  let length t = t.count

  let push t ~key v =
    let key = if key < 0 then 0 else min key (Array.length t.buckets - 1) in
    Int_vec.push t.buckets.(key) v;
    if key < t.min then t.min <- key;
    t.count <- t.count + 1

  let pop_min t =
    if t.count = 0 then None
    else begin
      while
        t.min < Array.length t.buckets && Int_vec.length t.buckets.(t.min) = 0
      do
        t.min <- t.min + 1
      done;
      t.count <- t.count - 1;
      Some (Int_vec.pop t.buckets.(t.min))
    end
end
