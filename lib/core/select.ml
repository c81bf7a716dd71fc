module Reg = Iloc.Reg

type t = {
  colors : int option array;
  spilled : int list;
  partner_hits : int;  (** colored with a colored partner's color *)
  lookahead_hits : int;  (** colored to stay compatible with an uncolored partner *)
  fallback_hits : int;  (** colored with the plain lowest available color *)
}

let run (g : Interference.t) ~k ~order ~partners =
  let n = Interference.n_nodes g in
  let colors = Array.make n None in
  (* Epoch-stamped scratch replaces the per-node forbidden list and its
     [List.mem] probes: a color is forbidden iff its slot holds the
     current epoch, so "clearing" between nodes is an integer bump and a
     color test is one array read.  [used] holds the node's own
     forbidden set for the whole pick; [pused] is restamped per
     uncolored partner during the lookahead. *)
  let kmax = max 1 (max (k Reg.Int) (k Reg.Float)) in
  let used = Array.make kmax 0 in
  let pused = Array.make kmax 0 in
  let epoch = ref 0 in
  let partner_hits = ref 0 in
  let lookahead_hits = ref 0 in
  let fallback_hits = ref 0 in
  let pick i =
    let ki = k (Reg.cls (Interference.reg g i)) in
    incr epoch;
    let e = !epoch in
    Interference.iter_neighbors
      (fun nb ->
        match colors.(nb) with
        | Some c -> if c < ki then used.(c) <- e
        | None -> ())
      g i;
    let available c = c >= 0 && c < ki && used.(c) <> e in
    (* 1. a color one of my colored partners already holds *)
    let partner_color =
      List.find_opt
        (fun p ->
          match colors.(p) with Some c -> available c | None -> false)
        partners.(i)
      |> Option.map (fun p -> Option.get colors.(p))
    in
    match partner_color with
    | Some c ->
        incr partner_hits;
        Some c
    | None ->
        (* 2. lookahead: prefer a color an uncolored partner could still
           receive, so later biasing can match us *)
        let lookahead =
          List.find_map
            (fun p ->
              if Option.is_some colors.(p) then None
              else begin
                incr epoch;
                let pe = !epoch in
                Interference.iter_neighbors
                  (fun nb ->
                    match colors.(nb) with
                    | Some c -> pused.(c) <- pe
                    | None -> ())
                  g p;
                let rec first c =
                  if c >= ki then None
                  else if used.(c) <> e && pused.(c) <> pe then Some c
                  else first (c + 1)
                in
                first 0
              end)
            partners.(i)
        in
        (match lookahead with
        | Some c ->
            incr lookahead_hits;
            Some c
        | None ->
            (* 3. lowest available color *)
            let rec first c =
              if c >= ki then None
              else if used.(c) <> e then Some c
              else first (c + 1)
            in
            let r = first 0 in
            if Option.is_some r then incr fallback_hits;
            r)
  in
  List.iter (fun i -> colors.(i) <- pick i) order;
  (* Only nodes that went through the order can have spilled: a
     merged-away node legitimately has no color. *)
  let spilled =
    List.sort Int.compare
      (List.filter (fun i -> Option.is_none colors.(i)) order)
  in
  {
    colors;
    spilled;
    partner_hits = !partner_hits;
    lookahead_hits = !lookahead_hits;
    fallback_hits = !fallback_hits;
  }

(* Each pair's sides pushed onto each other's lists, in list order,
   through their representatives; a pair coalescing made one live range
   is no pair. *)
let partners g split_nodes =
  let partners = Array.make (Interference.n_nodes g) [] in
  for c = 0 to (Array.length split_nodes / 2) - 1 do
    let a = split_nodes.(2 * c) and b = split_nodes.((2 * c) + 1) in
    if a >= 0 && b >= 0 then begin
      let a = Interference.find g a and b = Interference.find g b in
      if a <> b then begin
        partners.(a) <- b :: partners.(a);
        partners.(b) <- a :: partners.(b)
      end
    end
  done;
  partners

let phase (ctx : Context.t) g ~split_nodes ~order =
  let sel =
    Context.time ctx Stats.Select (fun () ->
        run g ~k:ctx.Context.k ~order ~partners:(partners g split_nodes))
  in
  Context.count ctx Stats.Select_partner_hits sel.partner_hits;
  Context.count ctx Stats.Select_lookahead_hits sel.lookahead_hits;
  Context.count ctx Stats.Select_fallbacks sel.fallback_hits;
  sel
