type phase =
  | Validate
  | Cfa
  | Renum
  | Splitting
  | Liveness
  | Build
  | Coalesce
  | Costs
  | Simplify
  | Select
  | Spill
  | Rewrite

type counter =
  | Full_builds
  | Liveness_runs
  | Coalesce_sweeps
  | Coalesced_copies
  | Node_merges
  | Spilled_ranges
  | Briggs_tests
  | Briggs_denied
  | Interfering_copies
  | Select_partner_hits
  | Select_lookahead_hits
  | Select_fallbacks
  | Build_pairs
  | Build_dupes
  | Build_overlay

type row = {
  round : int;
  phase : phase;
  seconds : float;
  minor_words : float;
  major_words : float;
}

type t = {
  mutable rows_rev : row list;
  counts : (int * counter, int) Hashtbl.t;
  mutable count_order_rev : (int * counter) list;
}

let create () =
  { rows_rev = []; counts = Hashtbl.create 16; count_order_rev = [] }

(* [Gc.counters] reads the calling domain's counters without allocating
   a [Gc.stat] record; the one tuple it does allocate falls outside the
   minor-word window, which opens after it and closes before it. *)
let major_words () =
  let _, _, major = Gc.counters () in
  major

let time t ~round phase f =
  let major0 = major_words () in
  let words0 = Gc.minor_words () in
  let start = Unix.gettimeofday () in
  let finish () =
    let seconds = Unix.gettimeofday () -. start in
    let minor_words = Gc.minor_words () -. words0 in
    let major_words = major_words () -. major0 in
    t.rows_rev <-
      { round; phase; seconds; minor_words; major_words } :: t.rows_rev
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let count t ~round counter n =
  if n <> 0 then begin
    let key = (round, counter) in
    match Hashtbl.find_opt t.counts key with
    | Some c -> Hashtbl.replace t.counts key (c + n)
    | None ->
        Hashtbl.add t.counts key n;
        t.count_order_rev <- key :: t.count_order_rev
  end

let rows t = List.rev t.rows_rev

let counters t =
  List.rev_map
    (fun (round, c) -> (round, c, Hashtbl.find t.counts (round, c)))
    t.count_order_rev

let counter_total t counter =
  Hashtbl.fold
    (fun (_, c) n acc -> if c = counter then acc + n else acc)
    t.counts 0

let total t = List.fold_left (fun acc r -> acc +. r.seconds) 0. t.rows_rev

let phase_to_string = function
  | Validate -> "validate"
  | Cfa -> "cfa"
  | Renum -> "renum"
  | Splitting -> "split"
  | Liveness -> "live"
  | Build -> "build"
  | Coalesce -> "coalesce"
  | Costs -> "costs"
  | Simplify -> "simplify"
  | Select -> "select"
  | Spill -> "spill"
  | Rewrite -> "rewrite"

let counter_to_string = function
  | Full_builds -> "full-builds"
  | Liveness_runs -> "liveness-runs"
  | Coalesce_sweeps -> "coalesce-sweeps"
  | Coalesced_copies -> "coalesced-copies"
  | Node_merges -> "node-merges"
  | Spilled_ranges -> "spilled-ranges"
  | Briggs_tests -> "briggs-tests"
  | Briggs_denied -> "briggs-denied"
  | Interfering_copies -> "copies-interfering"
  | Select_partner_hits -> "select-partner"
  | Select_lookahead_hits -> "select-lookahead"
  | Select_fallbacks -> "select-fallback"
  | Build_pairs -> "build-pairs-emitted"
  | Build_dupes -> "build-dupes-dropped"
  | Build_overlay -> "build-overlay-edges"

let by_phase t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      let key = (r.round, r.phase) in
      match Hashtbl.find_opt tbl key with
      | Some (s, w, mj) ->
          Hashtbl.replace tbl key
            (s +. r.seconds, w +. r.minor_words, mj +. r.major_words)
      | None ->
          Hashtbl.add tbl key (r.seconds, r.minor_words, r.major_words);
          order := key :: !order)
    (rows t);
  List.rev_map
    (fun (round, phase) ->
      let s, w, mj = Hashtbl.find tbl (round, phase) in
      (round, phase, s, w, mj))
    !order

let pp ppf t =
  List.iter
    (fun (round, phase, s, w, mj) ->
      Format.fprintf ppf "round %d %-8s %8.5fs %12.0fw %12.0fW@." round
        (phase_to_string phase) s w mj)
    (by_phase t);
  Format.fprintf ppf "total %16.5fs@." (total t);
  match counters t with
  | [] -> ()
  | cs ->
      List.iter
        (fun (round, c, n) ->
          Format.fprintf ppf "round %d %-16s %8d@." round (counter_to_string c) n)
        cs
