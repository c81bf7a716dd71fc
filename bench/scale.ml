(* Scale benchmark: the coloring-core phases (simplify, select, the
   coalescing fixpoint) on Fuzz.Gen high-pressure routines of growing
   size.

   Each phase of lib/core is timed, and its output is compared exactly
   with the retained pre-optimization code (the [Reference] library:
   whole-graph rescan per spill candidate, forbidden-color lists,
   whole-CFG coalescing sweeps with an allocating Briggs test) on the
   same input, so every benchmark run doubles as a differential test.
   A full Remat.Allocator.allocate per size records end-to-end per-phase
   seconds and minor-heap words through Stats, and Verify.Check proves
   that allocation faithful to its source. *)

module Cfg = Iloc.Cfg
module Gen = Fuzz.Gen
module Interference = Remat.Interference

let mode = Remat.Mode.Briggs_remat

(* 8+8 registers: enough to color the trivial mass, small enough that a
   high-pressure routine keeps simplify in its spill-candidate loop —
   the loop whose former O(n) rescan this benchmark exists to expose. *)
let machine = Remat.Machine.make ~name:"scale" ~k_int:8 ~k_float:8

let config ~stmts =
  {
    Gen.high_pressure with
    Gen.min_ivars = 20;
    max_ivars = 26;
    min_fvars = 12;
    max_fvars = 16;
    max_depth = 4;
    min_stmts = stmts;
    max_stmts = stmts;
  }

(* Sizes at or above this run the flat-substrate tier instead of the
   reference coloring comparison: the Reference implementations (and
   dense per-register rows) were never meant for 10^5-10^6
   instructions. *)
let big_threshold = 50_000

(* At the million-instruction tier the depth-4 generator's instruction
   count explodes far faster than the statement budget can resolve
   (adjacent budgets jump past the target by hundreds of thousands), so
   the big tier above ~200k statements flattens nesting to depth 2,
   where the search converges. *)
let big_config ~stmts = { (config ~stmts) with Gen.max_depth = 2 }

let n_instrs cfg =
  let n = ref 0 in
  Cfg.iter_blocks
    (fun b -> n := !n + 1 + List.length b.Iloc.Block.body)
    cfg;
  !n

let generate ~stmts seed = Gen.generate ~config:(config ~stmts) seed

(* Instruction count grows superlinearly in the statement budget (nested
   blocks redraw from the same stmt range), so a proportional controller
   oscillates; bracket the target and binary-search instead, taking the
   budget whose emitted count lands closest.  Returns the budget, not
   the routine: callers regenerate from (seed, budget) whenever they
   need a pristine copy. *)
let stmts_for ?(mk = config) ~target seed =
  let n_of stmts = n_instrs (Gen.generate ~config:(mk ~stmts) seed) in
  if n_of 1 >= target then 1
  else begin
    let hi = ref 2 in
    while n_of !hi < target && !hi < 1 lsl 20 do
      hi := !hi * 2
    done;
    let lo = ref (!hi / 2) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if n_of mid < target then lo := mid else hi := mid
    done;
    if target - n_of !lo <= n_of !hi - target then !lo else !hi
  end

(* The allocator's own preprocessing, up to the first build–coalesce:
   critical-edge splitting, loop analysis, renumbering.  Returns the
   renumbered routine beside the context, for the reference coalescer,
   which renames it in place. *)
let fresh_ctx cfg =
  let cfg0 = Cfg.split_critical_edges cfg in
  let dom = Dataflow.Dominance.compute cfg0 in
  let loops = Dataflow.Loops.compute cfg0 dom in
  let rn = Remat.Renumber.run mode cfg0 in
  ( Remat.Context.create ~mode ~machine ~loops ~tags:rn.Remat.Renumber.tags
      ~split_pairs:rn.Remat.Renumber.split_pairs
      ~stats:(Remat.Stats.create ())
      (Iloc.Flat.of_routine rn.Remat.Renumber.cfg),
    rn.Remat.Renumber.cfg )

let time_min ~repeats f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

type phase_times = { simplify : float; select : float; coalesce : float }

type row = {
  target : int;
  instrs : int;
  nodes : int;
  edges : int;
  times : phase_times;
  alloc : (Remat.Stats.phase * float * float * float) list;
      (** full-allocator per-phase (seconds, minor words, major words),
          summed over rounds *)
  counters : (string * int) list;
      (** graph-build volume counters of the instrumented allocation
          (pairs emitted, duplicates dropped, union edges coalescing's
          merges added) *)
  verify_s : float;  (** seconds {!Verify.Check} took to prove it *)
}

(* At and above [big_threshold] sizes run as this row instead: the flat
   substrate (arena encode, boundary liveness), with the flat and
   structured forms byte-compared through the printer, plus one
   instrumented end-to-end allocation.  [u]
   is |U|, the upward-exposed universe boundary liveness compresses its
   rows to. *)
type big_row = {
  btarget : int;
  binstrs : int;
  bblocks : int;
  bregs : int;
  u : int;
  bphases : (string * float) list;
  balloc : (Remat.Stats.phase * float * float * float) list;
      (** end-to-end allocation, per-phase (seconds, minor words, major
          words) summed over rounds *)
  bcounters : (string * int) list;  (** see {!row.counters} *)
  bverify_s : float option;
      (** see {!row.verify_s}; [None] above [huge_cutoff] *)
}

exception Divergence of string

let check_equal what ok =
  if not ok then
    raise
      (Divergence
         (Printf.sprintf "scale bench: reference and new %s disagree" what))

(* Statically verify an end-to-end allocation of [input]; a rejection
   fails the run like any divergence.  Returns the checker's seconds. *)
let verify_alloc input (res : Remat.Allocator.result) =
  let t0 = Unix.gettimeofday () in
  let verdict =
    Verify.Check.routine ~input ~output:res.Remat.Allocator.cfg
      ~k_int:machine.Remat.Machine.k_int ~k_float:machine.Remat.Machine.k_float
  in
  let dt = Unix.gettimeofday () -. t0 in
  check_equal "routines (Verify.Check rejects the allocation)"
    (Result.is_ok verdict);
  dt

(* Per-phase (seconds, minor words, major words) of one instrumented
   allocation, summed over spill rounds, in first-seen phase order. *)
let alloc_stats (res : Remat.Allocator.result) =
  let acc = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (_, phase, s, w, mj) ->
      match Hashtbl.find_opt acc phase with
      | Some (s0, w0, mj0) ->
          Hashtbl.replace acc phase (s0 +. s, w0 +. w, mj0 +. mj)
      | None ->
          Hashtbl.add acc phase (s, w, mj);
          order := phase :: !order)
    (Remat.Stats.by_phase res.Remat.Allocator.stats);
  List.rev_map
    (fun p ->
      let s, w, mj = Hashtbl.find acc p in
      (p, s, w, mj))
    !order

(* The graph build's volume counters — deterministic per input,
   so the --check gate can treat them like heap words. *)
let build_counters (res : Remat.Allocator.result) =
  List.map
    (fun c ->
      ( Remat.Stats.counter_to_string c,
        Remat.Stats.counter_total res.Remat.Allocator.stats c ))
    [ Remat.Stats.Build_pairs; Remat.Stats.Build_dupes;
      Remat.Stats.Build_overlay ]

let measure ~repeats ~target seed =
  let stmts = stmts_for ~target seed in
  let cfg () = generate ~stmts seed in
  let instrs = n_instrs (cfg ()) in
  (* Coalesce: the whole unrestricted+conservative fixpoint, fresh
     context per repeat (it mutates the routine and the graph). *)
  let coalesce =
    let best = ref infinity in
    for _ = 1 to repeats do
      let ctx, _ = fresh_ctx (cfg ()) in
      let t0 = Unix.gettimeofday () in
      Remat.Allocator.build_coalesce ctx;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let ctx_old, cfg_old = fresh_ctx (cfg ()) in
  Reference.Coalesce.fixpoint ctx_old cfg_old;
  let ctx, _ = fresh_ctx (cfg ()) in
  Remat.Allocator.build_coalesce ctx;
  check_equal "coalesced routines"
    (Cfg.structural_equal cfg_old
       (Iloc.Flat.to_routine (Remat.Context.flat ctx)));
  (* Simplify and select run read-only on the post-coalesce graph, so
     the same graph serves the reference run and every repeat. *)
  let g = Remat.Context.graph ctx in
  let costs = Remat.Spill_cost.phase ctx in
  let k = ctx.Remat.Context.k in
  let old_stack = Reference.Simplify.run g ~k ~costs in
  let new_stack = Remat.Simplify.run g ~k ~costs in
  check_equal "simplify stacks" (old_stack = new_stack);
  let simplify =
    time_min ~repeats (fun () -> ignore (Remat.Simplify.run g ~k ~costs))
  in
  let order = new_stack in
  let partners = Array.make (Interference.n_nodes g) [] in
  List.iter
    (fun (a, b) ->
      match (Interference.index_opt g a, Interference.index_opt g b) with
      | Some ia, Some ib ->
          let ia = Interference.find g ia and ib = Interference.find g ib in
          partners.(ia) <- ib :: partners.(ia);
          partners.(ib) <- ia :: partners.(ib)
      | _ -> ())
    ctx.Remat.Context.split_pairs;
  let old_sel = Reference.Select.run g ~k ~order ~partners in
  let new_sel = Remat.Select.run g ~k ~order ~partners in
  check_equal "select colorings"
    (old_sel.Reference.Select.colors = new_sel.Remat.Select.colors
    && old_sel.Reference.Select.spilled = new_sel.Remat.Select.spilled);
  let select =
    time_min ~repeats (fun () ->
        ignore (Remat.Select.run g ~k ~order ~partners))
  in
  (* End-to-end allocation, instrumented: per-phase seconds and heap
     words summed over spill rounds. *)
  let input = cfg () in
  let res = Remat.Allocator.allocate ~mode ~machine input in
  let verify_s = verify_alloc input res in
  let alloc = alloc_stats res in
  {
    target;
    instrs;
    nodes = Interference.n_nodes g;
    edges = Interference.n_edges g;
    times = { simplify; select; coalesce };
    alloc;
    counters = build_counters res;
    verify_s;
  }

(* Sizes above this generate with [big_config] and skip the static
   verification in [measure_big]. *)
let huge_cutoff = 200_000

let measure_big ~repeats ~target seed =
  let mk = if target > huge_cutoff then big_config else config in
  let stmts = stmts_for ~mk ~target seed in
  let cfg = Gen.generate ~config:(mk ~stmts) seed in
  let instrs = n_instrs cfg in
  let fl = Iloc.Flat.of_routine cfg in
  check_equal "flat round-trip printouts"
    (String.equal (Cfg.to_string cfg)
       (Cfg.to_string (Iloc.Flat.to_routine fl)));
  let encode =
    time_min ~repeats (fun () -> ignore (Iloc.Flat.of_routine cfg))
  in
  let boundary =
    time_min ~repeats (fun () ->
        ignore (Dataflow.Liveness.Boundary.compute fl))
  in
  let bl = Dataflow.Liveness.Boundary.compute fl in
  (* End-to-end allocation, instrumented, once (a full run at these
     sizes is minutes of work; phase words don't vary across repeats). *)
  let res = Remat.Allocator.allocate ~mode ~machine cfg in
  (* Up to the huge cutoff, verify the allocation statically: the CI
     smoke size (100k) then proves it faithful at a five-digit node
     count on every bench run. *)
  let bverify_s =
    if target > huge_cutoff then None else Some (verify_alloc cfg res)
  in
  {
    btarget = target;
    binstrs = instrs;
    bblocks = Iloc.Flat.n_blocks fl;
    bregs = Dataflow.Reg_index.count (Dataflow.Reg_index.of_flat fl);
    u = Dataflow.Reg_index.count bl.Dataflow.Liveness.Boundary.uindex;
    bphases = [ ("encode", encode); ("boundary", boundary) ];
    balloc = alloc_stats res;
    bcounters = build_counters res;
    bverify_s;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

(* One allocation's phase line: seconds with each phase's share of the
   end-to-end total, then heap words — the share is what makes a 1M-row
   readable (a phase at 0.8s means nothing until it says 2% vs 60%). *)
let pp_alloc ppf alloc counters verify_s =
  let total = List.fold_left (fun a (_, s, _, _) -> a +. s) 0. alloc in
  Format.fprintf ppf " total %.4fs |" total;
  List.iter
    (fun (p, s, w, mj) ->
      Format.fprintf ppf " %s %.4fs(%.0f%%)/%.0fkw/%.0fkW"
        (Remat.Stats.phase_to_string p)
        s
        (if total > 0. then 100. *. s /. total else 0.)
        (w /. 1000.) (mj /. 1000.))
    alloc;
  List.iter (fun (name, v) -> Format.fprintf ppf " %s=%d" name v) counters;
  Option.iter (Format.fprintf ppf " | verify %.4fs") verify_s

let pp ppf rows =
  Format.fprintf ppf
    "=== Scale benchmark: coloring core ===@.\
     (Fuzz.Gen high-pressure routines on an %d+%d-register machine;@.\
    \ seconds are the best of the repeats; outputs byte-compared@.\
    \ with the reference implementation)@.@."
    machine.Remat.Machine.k_int machine.Remat.Machine.k_float;
  Format.fprintf ppf "%8s %8s %8s %9s | %9s | %9s | %9s@." "target" "instrs"
    "nodes" "edges" "simplify" "select" "coalesce";
  Format.fprintf ppf "%s@." (String.make 72 '-');
  List.iter
    (fun r ->
      Format.fprintf ppf "%8d %8d %8d %9d | %9.6f | %9.6f | %9.6f@." r.target
        r.instrs r.nodes r.edges r.times.simplify r.times.select
        r.times.coalesce)
    rows;
  Format.fprintf ppf
    "@.full allocator, per-phase seconds (share of total), \
     minor/major kwords, verify seconds:@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8d |" r.target;
      pp_alloc ppf r.alloc r.counters (Some r.verify_s);
      Format.fprintf ppf "@.")
    rows;
  Format.fprintf ppf "@."

let pp_big ppf rows =
  Format.fprintf ppf
    "=== Flat substrate at scale ===@.\
     (arena encode + boundary liveness on the packed form; flat and@.\
    \ structured printouts byte-compared)@.@.";
  Format.fprintf ppf "%8s %9s %7s %7s %6s | %s@." "target" "instrs" "blocks"
    "regs" "|U|" "phase seconds (best of repeats)";
  Format.fprintf ppf "%s@." (String.make 78 '-');
  List.iter
    (fun r ->
      Format.fprintf ppf "%8d %9d %7d %7d %6d |" r.btarget r.binstrs
        r.bblocks r.bregs r.u;
      List.iter
        (fun (name, s) -> Format.fprintf ppf " %s %.4fs" name s)
        r.bphases;
      Format.fprintf ppf "@.")
    rows;
  Format.fprintf ppf
    "@.end-to-end allocation, per-phase seconds (share of total), \
     minor/major kwords, verify seconds:@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8d |" r.btarget;
      pp_alloc ppf r.balloc r.bcounters r.bverify_s;
      Format.fprintf ppf "@.")
    rows;
  Format.fprintf ppf "@."

let alloc_json b alloc =
  List.iteri
    (fun j (p, s, w, mj) ->
      if j > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"phase\":\"%s\",\"seconds\":%.9f,\"minor_words\":%.0f,\"major_words\":%.0f}"
           (Remat.Stats.phase_to_string p)
           s w mj))
    alloc

let counters_json b counters =
  Buffer.add_string b ",\"counters\":{";
  List.iteri
    (fun j (name, v) ->
      if j > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" name v))
    counters;
  Buffer.add_char b '}'

let json ~repeats rows big_rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"bench\":\"scale\",\"machine\":{\"k_int\":%d,\"k_float\":%d},\"repeats\":%d,\"sizes\":["
       machine.Remat.Machine.k_int machine.Remat.Machine.k_float repeats);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      let side t =
        Printf.sprintf
          "{\"simplify\":%.9f,\"select\":%.9f,\"coalesce\":%.9f}" t.simplify
          t.select t.coalesce
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"target\":%d,\"instrs\":%d,\"nodes\":%d,\"edges\":%d,\"new\":%s,\"alloc\":["
           r.target r.instrs r.nodes r.edges (side r.times));
      alloc_json b r.alloc;
      Buffer.add_char b ']';
      counters_json b r.counters;
      Buffer.add_char b '}')
    rows;
  Buffer.add_string b "],\"big\":[";
  (* Same "target":N,..."new":{...},"alloc":[...] shape as the small
     entries so [scan_baseline]/[scan_alloc] read both tiers with one
     scanner each. *)
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"target\":%d,\"instrs\":%d,\"blocks\":%d,\"regs\":%d,\"u\":%d,\"new\":{"
           r.btarget r.binstrs r.bblocks r.bregs r.u);
      List.iteri
        (fun j (name, s) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "\"%s\":%.9f" name s))
        r.bphases;
      Buffer.add_string b "},\"alloc\":[";
      alloc_json b r.balloc;
      Buffer.add_char b ']';
      counters_json b r.bcounters;
      Buffer.add_char b '}')
    big_rows;
  Buffer.add_string b "]}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Baseline comparison (--check)                                       *)

(* Minimal scanner for the JSON this module itself writes: no JSON
   library in the tree, and the schema is ours, so substring navigation
   is enough — find the size entry by its "target", enter its "new"
   object, read one float per phase key. *)
let scan_find text sub from =
  let n = String.length text and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub text i m = sub then Some (i + m)
    else go (i + 1)
  in
  go from

let scan_float text p =
  let e = ref p in
  while
    !e < String.length text
    && (match text.[!e] with
       | '0' .. '9' | '.' | '-' | 'e' | '+' -> true
       | _ -> false)
  do
    incr e
  done;
  float_of_string_opt (String.sub text p (!e - p))

let scan_baseline text ~target phase =
  let ( let* ) = Option.bind in
  let* p = scan_find text (Printf.sprintf "\"target\":%d," target) 0 in
  let* p = scan_find text "\"new\":{" p in
  let* p = scan_find text (Printf.sprintf "\"%s\":" phase) p in
  scan_float text p

(* One allocation-phase figure ("seconds", "minor_words" or
   "major_words") from a size entry's "alloc" array. *)
let scan_alloc text ~target ~phase key =
  let ( let* ) = Option.bind in
  let* p = scan_find text (Printf.sprintf "\"target\":%d," target) 0 in
  let* p = scan_find text "\"alloc\":[" p in
  let* p = scan_find text (Printf.sprintf "{\"phase\":\"%s\"" phase) p in
  let* p = scan_find text (Printf.sprintf "\"%s\":" key) p in
  scan_float text p

(* One build counter from a size entry's "counters" object. *)
let scan_counter text ~target name =
  let ( let* ) = Option.bind in
  let* p = scan_find text (Printf.sprintf "\"target\":%d," target) 0 in
  let* p = scan_find text "\"counters\":{" p in
  let* p = scan_find text (Printf.sprintf "\"%s\":" name) p in
  scan_float text p

(* A phase regresses when it runs more than [factor] slower than the
   checked-in baseline.  Sub-millisecond baselines are pure noise at CI
   smoke sizes, so they are reported but never failed on.  Allocation
   heap words are gated the same way: words are deterministic per input
   (unlike CI seconds), so a >2x jump above the noise floor means a code
   path started allocating where it did not before. *)
let check ~baseline rows big_rows ppf =
  let factor = 2.0 and floor_s = 0.001 in
  let floor_w = 1_000_000. in
  let failures = ref 0 in
  let check_words target phase (key, now) =
    match scan_alloc baseline ~target ~phase key with
    | None ->
        Format.fprintf ppf "check: %d/%s.%s: no baseline entry, skipped@."
          target phase key
    | Some base when base < floor_w && now < floor_w -> ()
    | Some base ->
        let ratio = if base > 0. then now /. base else infinity in
        if now > factor *. base && now > floor_w then begin
          incr failures;
          Format.fprintf ppf
            "check: %d/%s.%s: REGRESSION %.0f words vs baseline %.0f (%.1fx)@."
            target phase key now base ratio
        end
        else
          Format.fprintf ppf "check: %d/%s.%s: ok %.0f vs %.0f words (%.1fx)@."
            target phase key now base ratio
  in
  let check_alloc target alloc =
    List.iter
      (fun (p, _, w, mj) ->
        let phase = Remat.Stats.phase_to_string p in
        List.iter (check_words target phase)
          [ ("minor_words", w); ("major_words", mj) ])
      alloc
  in
  (* Build counters are deterministic per (seed, size), so like heap
     words a >2x jump means graph construction changed shape — e.g. the
     sweep started emitting candidates it used to filter, or coalescing's
     merges began adding more union edges. *)
  let check_counters target counters =
    let floor_c = 1_000. in
    List.iter
      (fun (name, v) ->
        let now = float_of_int v in
        match scan_counter baseline ~target name with
        | None ->
            Format.fprintf ppf "check: %d/%s: no baseline entry, skipped@."
              target name
        | Some base when base < floor_c && now < floor_c -> ()
        | Some base ->
            let ratio = if base > 0. then now /. base else infinity in
            if now > factor *. base then begin
              incr failures;
              Format.fprintf ppf
                "check: %d/%s: REGRESSION %.0f vs baseline %.0f (%.1fx)@."
                target name now base ratio
            end
            else
              Format.fprintf ppf "check: %d/%s: ok %.0f vs %.0f (%.1fx)@."
                target name now base ratio)
      counters
  in
  let check_one target (name, now) =
    match scan_baseline baseline ~target name with
    | None ->
        Format.fprintf ppf "check: %d/%s: no baseline entry, skipped@." target
          name
    | Some base when base < floor_s ->
        Format.fprintf ppf
          "check: %d/%s: baseline %.6fs below noise floor, skipped@." target
          name base
    | Some base ->
        let ratio = if base > 0. then now /. base else 0. in
        if now > factor *. base then begin
          incr failures;
          Format.fprintf ppf
            "check: %d/%s: REGRESSION %.6fs vs baseline %.6fs (%.1fx)@."
            target name now base ratio
        end
        else
          Format.fprintf ppf "check: %d/%s: ok %.6fs vs %.6fs (%.1fx)@."
            target name now base ratio
  in
  List.iter
    (fun r ->
      List.iter (check_one r.target)
        [
          ("simplify", r.times.simplify);
          ("select", r.times.select);
          ("coalesce", r.times.coalesce);
        ];
      check_alloc r.target r.alloc;
      check_counters r.target r.counters)
    rows;
  List.iter
    (fun r ->
      List.iter (check_one r.btarget) r.bphases;
      check_alloc r.btarget r.balloc;
      check_counters r.btarget r.bcounters)
    big_rows;
  !failures = 0

(* ------------------------------------------------------------------ *)

let default_sizes = [ 1000; 5000; 20000; 100_000; 1_000_000 ]

(* Entry point shared by bench/main.exe and `ralloc bench scale`.
   Returns the process exit code: 0 clean, 1 on a divergence from the
   reference outputs or a failed static verification, or a --check
   regression. *)
let run ?(sizes = default_sizes) ?(repeats = 3) ?(seed = 42) ?out ?check_file
    ppf =
  let small_sizes, big_sizes =
    List.partition (fun s -> s < big_threshold) sizes
  in
  match
    let rows =
      List.map
        (fun target ->
          Format.fprintf ppf "; measuring %d instructions...@." target;
          Format.pp_print_flush ppf ();
          measure ~repeats ~target seed)
        small_sizes
    in
    let big_rows =
      List.map
        (fun target ->
          Format.fprintf ppf "; measuring %d instructions (flat tier)...@."
            target;
          Format.pp_print_flush ppf ();
          measure_big ~repeats ~target seed)
        big_sizes
    in
    (rows, big_rows)
  with
  | exception Divergence msg ->
      Format.fprintf ppf "%s@." msg;
      1
  | rows, big_rows ->
      if rows <> [] then pp ppf rows;
      if big_rows <> [] then pp_big ppf big_rows;
      (match out with
      | Some path ->
          let oc = open_out path in
          output_string oc (json ~repeats rows big_rows);
          output_char oc '\n';
          close_out oc;
          Format.fprintf ppf "(written to %s)@." path
      | None -> ());
      (match check_file with
      | None -> 0
      | Some path ->
          let ic = open_in_bin path in
          let baseline =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          if check ~baseline rows big_rows ppf then begin
            Format.fprintf ppf "check: no phase regressed more than 2x@.";
            0
          end
          else 1)
