type t = {
  idom : int array;
  children : int list array;
  order : int array;
  tin : int array;
  tout : int array;
}

let compute_generic ~n ~entry ~succs ~preds =
  let po, _seen = Order.dfs_postorder ~n ~entry ~succs in
  let rpo = Array.init (Array.length po) (fun i -> po.(Array.length po - 1 - i)) in
  let rpo_number = Array.make n (-1) in
  Array.iteri (fun i b -> rpo_number.(b) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let intersect a b =
    (* Walk the two candidate dominators up the current tree until they
       meet; comparisons are on reverse-postorder numbers. *)
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_number.(!a) > rpo_number.(!b) do
        a := idom.(!a)
      done;
      while rpo_number.(!b) > rpo_number.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> entry then begin
          let processed =
            List.filter (fun p -> idom.(p) <> -1 && rpo_number.(p) <> -1)
              (preds b)
          in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  let children = Array.make n [] in
  Array.iter
    (fun b ->
      if b <> entry && idom.(b) <> -1 then
        children.(idom.(b)) <- b :: children.(idom.(b)))
    rpo;
  Array.iteri (fun i l -> children.(i) <- List.rev l) children;
  (* Preorder intervals for O(1) dominance queries.  Iterative walk:
     dominator trees of straight-line routines are paths, so recursion
     depth would be the block count. *)
  let tin = Array.make n (-1) and tout = Array.make n (-1) in
  let clock = ref 0 in
  if idom.(entry) <> -1 then begin
    let stack = ref [ (entry, children.(entry)) ] in
    tin.(entry) <- !clock;
    incr clock;
    let continue = ref true in
    while !continue do
      match !stack with
      | [] -> continue := false
      | (b, []) :: rest ->
          tout.(b) <- !clock;
          incr clock;
          stack := rest
      | (b, c :: more) :: rest ->
          stack := (c, children.(c)) :: (b, more) :: rest;
          tin.(c) <- !clock;
          incr clock
    done
  end;
  { idom; children; order = rpo; tin; tout }

let compute (cfg : Iloc.Cfg.t) =
  compute_generic ~n:(Iloc.Cfg.n_blocks cfg) ~entry:cfg.entry
    ~succs:(Iloc.Cfg.succs cfg) ~preds:(Iloc.Cfg.preds cfg)

let compute_flat (fl : Iloc.Flat.t) =
  (* The CSR edge lists are deduplicated/sorted exactly like the
     structured accessors, so this is [compute] of the bridged routine. *)
  compute_generic ~n:(Iloc.Flat.n_blocks fl) ~entry:fl.Iloc.Flat.entry
    ~succs:(Iloc.Flat.succs_list fl) ~preds:(Iloc.Flat.preds_list fl)

let postorder t =
  let n = Array.length t.order in
  Array.init n (fun i -> t.order.(n - 1 - i))

let dominates t a b =
  t.tin.(a) >= 0 && t.tin.(b) >= 0
  && t.tin.(a) <= t.tin.(b)
  && t.tout.(b) <= t.tout.(a)

let frontiers (cfg : Iloc.Cfg.t) t =
  let n = Iloc.Cfg.n_blocks cfg in
  (* One shared buffer for all n rows: frontier sets are consumed en
     masse right after construction (φ insertion), so per-row minor
     blocks would be pure churn. *)
  let df = Bitset.slab ~rows:n ~capacity:n () in
  for b = 0 to n - 1 do
    let preds = Iloc.Cfg.preds cfg b in
    if List.length preds >= 2 && t.idom.(b) <> -1 then
      List.iter
        (fun p ->
          if t.idom.(p) <> -1 then begin
            let runner = ref p in
            while !runner <> t.idom.(b) do
              Bitset.add df.(!runner) b;
              runner := t.idom.(!runner)
            done
          end)
        preds
  done;
  df

let frontiers_flat (fl : Iloc.Flat.t) t =
  let n = Iloc.Flat.n_blocks fl in
  let df = Bitset.slab ~rows:n ~capacity:n () in
  let pred_idx = fl.Iloc.Flat.pred_idx and pred = fl.Iloc.Flat.pred in
  for b = 0 to n - 1 do
    let lo = pred_idx.(b) and hi = pred_idx.(b + 1) in
    if hi - lo >= 2 && t.idom.(b) <> -1 then
      for i = lo to hi - 1 do
        let p = pred.(i) in
        if t.idom.(p) <> -1 then begin
          let runner = ref p in
          while !runner <> t.idom.(b) do
            Bitset.add df.(!runner) b;
            runner := t.idom.(!runner)
          done
        end
      done
  done;
  df

module Idf = struct
  type state = {
    result : Bitset.t;
    enqueued : Bitset.t;
    worklist : Int_vec.t;
    touched : Int_vec.t;
        (* every block ever enqueued since the last reset; result ⊆
           enqueued, so clearing along [touched] resets both sets in
           O(touched) instead of O(n) *)
  }

  let create ~n =
    {
      result = Bitset.create n;
      enqueued = Bitset.create n;
      worklist = Int_vec.create ();
      touched = Int_vec.create ();
    }

  let enqueue st b =
    if not (Bitset.mem st.enqueued b) then begin
      Bitset.add st.enqueued b;
      Int_vec.push st.touched b;
      Int_vec.push st.worklist b
    end

  let reset st =
    for k = 0 to Int_vec.length st.touched - 1 do
      let b = Int_vec.get st.touched k in
      Bitset.remove st.result b;
      Bitset.remove st.enqueued b
    done;
    Int_vec.clear st.touched;
    Int_vec.clear st.worklist

  (* DF+ is a set fixpoint, so the processing discipline (here a LIFO
     Int_vec instead of a queue) cannot change the result.  This runs
     once per register of the routine, so the body is closure-free: even
     one closure per call shows up in renumbering's allocation row. *)
  let fixpoint st df =
    let visit d =
      if not (Bitset.mem st.result d) then begin
        Bitset.add st.result d;
        enqueue st d
      end
    in
    while Int_vec.length st.worklist > 0 do
      let b = Int_vec.pop st.worklist in
      Bitset.iter visit df.(b)
    done;
    st.result

  let compute st df seeds =
    reset st;
    List.iter (enqueue st) seeds;
    fixpoint st df

  (* Same computation with seeds taken from an array slice — the flat
     renumbering keeps definition blocks in one CSR buffer, and going
     through lists here would rebuild them per register. *)
  let compute_slice st df seeds ~lo ~hi =
    reset st;
    for i = lo to hi - 1 do
      enqueue st seeds.(i)
    done;
    fixpoint st df
end
