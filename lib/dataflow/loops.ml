type loop = {
  header : int;
  body : Bitset.t;
  parent : int option;
  depth : int;
}

type t = {
  loops : loop array;
  depth : int array;
  innermost : int array;
}

(* Blocks that reach [t] without passing through [h], walked backwards
   over predecessor edges, plus [h] itself. *)
let natural_loop ~n ~preds ~h ~t:tail =
  let body = Bitset.create n in
  Bitset.add body h;
  let stack = ref [] in
  let push b =
    if not (Bitset.mem body b) then begin
      Bitset.add body b;
      stack := b :: !stack
    end
  in
  push tail;
  let rec drain () =
    match !stack with
    | [] -> ()
    | b :: rest ->
        stack := rest;
        List.iter push (preds b);
        drain ()
  in
  drain ();
  body

(* Both entry points, like {!Dominance.compute_generic}: equal edge lists
   meet the back edges, and number the loops, in the same order. *)
let compute_generic ~n ~succs ~preds (dom : Dominance.t) =
  (* Collect back edges and merge natural loops sharing a header. *)
  let by_header = Hashtbl.create 8 in
  for b = 0 to n - 1 do
    List.iter
      (fun s ->
        if Dominance.dominates dom s b then begin
          let body = natural_loop ~n ~preds ~h:s ~t:b in
          match Hashtbl.find_opt by_header s with
          | None -> Hashtbl.add by_header s body
          | Some acc -> ignore (Bitset.union_into ~dst:acc body)
        end)
      (succs b)
  done;
  let raw =
    Hashtbl.fold (fun header body acc -> (header, body) :: acc) by_header []
    (* Sort outermost-first so parents precede children below: a loop with
       a larger body can never be nested inside a smaller one. *)
    |> List.sort (fun (_, a) (_, b) ->
           Int.compare (Bitset.cardinal b) (Bitset.cardinal a))
    |> Array.of_list
  in
  let contains i j =
    (* does loop i contain loop j? (i <> j) *)
    let _, bi = raw.(i) and hj, bj = raw.(j) in
    Bitset.mem bi hj
    && Bitset.fold (fun b acc -> acc && Bitset.mem bi b) bj true
  in
  let parents = Array.make (Array.length raw) None in
  let depths = Array.make (Array.length raw) 1 in
  Array.iteri
    (fun j _ ->
      (* innermost enclosing loop = smallest containing loop; since raw is
         sorted by decreasing size, the last i < j that contains j works. *)
      for i = 0 to j - 1 do
        if contains i j then parents.(j) <- Some i
      done;
      match parents.(j) with
      | Some p -> depths.(j) <- depths.(p) + 1
      | None -> depths.(j) <- 1)
    raw;
  let loops =
    Array.mapi
      (fun i (header, body) ->
        { header; body; parent = parents.(i); depth = depths.(i) })
      raw
  in
  let depth = Array.make n 0 in
  let innermost = Array.make n (-1) in
  Array.iteri
    (fun i (l : loop) ->
      Bitset.iter
        (fun b ->
          if l.depth > depth.(b) then begin
            depth.(b) <- l.depth;
            innermost.(b) <- i
          end)
        l.body)
    loops;
  { loops; depth; innermost }

let compute (cfg : Iloc.Cfg.t) dom =
  compute_generic ~n:(Iloc.Cfg.n_blocks cfg) ~succs:(Iloc.Cfg.succs cfg)
    ~preds:(Iloc.Cfg.preds cfg) dom

let compute_flat (fl : Iloc.Flat.t) dom =
  compute_generic ~n:(Iloc.Flat.n_blocks fl) ~succs:(Iloc.Flat.succs_list fl)
    ~preds:(Iloc.Flat.preds_list fl) dom

let weight t b = 10. ** float_of_int t.depth.(b)
