(* The repository benchmark: one workload per invocation, timed from
   outside the library by spans around calls into each layer's public
   functions.  See README.md for the workloads, every metric, and which
   end-to-end metric each layer metric should move.

   The program prints a human-readable report, then one JSON object as
   its last line holding every metric it measured; run.py selects the
   ones BENCHMARK.json names. *)

module Cfg = Iloc.Cfg
module Allocator = Remat.Allocator
module Mode = Remat.Mode
module Machine = Remat.Machine
module Stats = Remat.Stats
module Protocol = Serve.Protocol
module Frame = Serve.Frame

(* ------------------------------------------------------------------ *)
(* Clock, samples, metrics                                             *)
(* ------------------------------------------------------------------ *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Linear-interpolated quantile of an unsorted sample list; 0 when
   empty (every caller reports the sample count beside it). *)
let quantile xs q =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* The highest of p99.9 / p99 / p90 / p50 that has at least ten samples
   beyond it, as a label for the report. *)
let tail_label n =
  let beyond q = float_of_int n *. (1. -. q) >= 10. in
  if beyond 0.999 then "p99.9"
  else if beyond 0.99 then "p99"
  else if beyond 0.9 then "p90"
  else if beyond 0.5 then "p50"
  else "none"

let metrics : (string * float * string) list ref = ref []
let put name unit v = metrics := (name, v, unit) :: !metrics

(* Sample counts and free-form notes, for the report. *)
let samples : (string * int) list ref = ref []
let notes : string list ref = ref []
let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

(* Failures: operations attempted and failed, with the first few
   messages kept for the report. *)
(* Digest of the generated inputs, for the determinism self-check. *)
let inputs_digest = ref ""

let attempted = ref 0
let failed = ref 0
let failure_msgs : string list ref = ref []

(* [fail_n n] counts [n] failed operations under one message. *)
let fail_n n fmt =
  Printf.ksprintf
    (fun s ->
      failed := !failed + n;
      if List.length !failure_msgs < 10 then failure_msgs := s :: !failure_msgs)
    fmt

let fail fmt = fail_n 1 fmt

(* A broken benchmark invariant (not a program output): the run is
   reported incorrect without counting an operation as failed. *)
let self_check_ok = ref true

let self_check_fail fmt =
  Printf.ksprintf
    (fun s ->
      self_check_ok := false;
      failure_msgs := ("self-check: " ^ s) :: !failure_msgs)
    fmt

let n_instrs cfg =
  let n = ref 0 in
  Cfg.iter_blocks (fun b -> n := !n + 1 + List.length b.Iloc.Block.body) cfg;
  !n

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Spans are recorded by the benchmark's own code only (never by the
   server thread), kept in memory and written out at exit.  With tracing
   off [span] is a plain call. *)
type span = {
  id : int;
  parent : int;  (* -1: root *)
  req : int;  (* operation (compile or request) the span belongs to *)
  name : string;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let span_count = ref 0
let current = ref (-1)

let record ~id ~parent ~req name t0 t1 =
  spans := { id; parent; req; name; t0; t1 } :: !spans

let fresh_id () =
  let id = !span_count in
  incr span_count;
  id

(* The spans recorded since [!spans] was [mark]. *)
let spans_since mark =
  let rec go acc = function
    | l when l == mark -> acc
    | [] -> acc
    | s :: rest -> go (s :: acc) rest
  in
  go [] !spans

let span ~req name f =
  if not !tracing then f ()
  else begin
    let id = fresh_id () and parent = !current in
    current := id;
    let t0 = now () in
    let finish () =
      record ~id ~parent ~req name t0 (now ());
      current := parent
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Self time per span name over [ss]: each span's duration minus the
   part its children cover. *)
let self_times ss =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    ss;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    ss;
  by_name

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n"
        s.id s.parent s.req s.name (s.t0 *. 1e6) (s.t1 *. 1e6))
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Set-up timing                                                       *)
(* ------------------------------------------------------------------ *)

(* Set up [reps] times, each from a collected heap, and report the
   median; every repetition must build the same inputs (compared through
   [key]).  All but the last result are handed to [discard] as soon as
   they are timed; the last is returned. *)
let timed_setup ?(discard = ignore) ~reps ~key f =
  let times = ref [] and first_key = ref None in
  let rec go i =
    Gc.full_major ();
    let t0 = now () in
    let v = f () in
    times := (now () -. t0) :: !times;
    (match !first_key with
    | None -> first_key := Some (key v)
    | Some k -> if key v <> k then self_check_fail "set-up built different inputs");
    if i = reps then v
    else begin
      discard v;
      go (i + 1)
    end
  in
  let v = go 1 in
  put "setup_s" "s" (median !times);
  samples := ("setup", reps) :: !samples;
  v

(* ------------------------------------------------------------------ *)
(* Verified compile: kernels and large                                 *)
(* ------------------------------------------------------------------ *)

type item = {
  label : string;  (* kernel name or routine name *)
  mode : Mode.t;
  machine : Machine.t;
  text : string;  (* ILOC input *)
  instrs : int;
}

let mode_name = Mode.to_string
let modes = [ Mode.Briggs_remat; Mode.Chaitin_remat; Mode.Ssa_remat ]

(* The timed path: ILOC text in, verified allocated ILOC text out. *)
let compile ~req it =
  span ~req "compile" (fun () ->
      let input = span ~req "iloc.parse" (fun () -> Iloc.Parser.routine it.text) in
      let res =
        span ~req
          ("core." ^ mode_name it.mode ^ ".allocate")
          (fun () -> Allocator.allocate ~mode:it.mode ~machine:it.machine input)
      in
      let verdict =
        span ~req "verify.check" (fun () ->
            Verify.Check.routine ~input ~output:res.Allocator.cfg
              ~k_int:it.machine.Machine.k_int ~k_float:it.machine.Machine.k_float)
      in
      let out =
        span ~req "iloc.print" (fun () ->
            Iloc.Printer.routine_to_string res.Allocator.cfg)
      in
      (res, verdict, out))

let phases =
  Stats.
    [
      (Cfa, "cfa");
      (Renum, "renum");
      (Liveness, "live");
      (Build, "build");
      (Coalesce, "coalesce");
      (Costs, "costs");
      (Simplify, "simplify");
      (Select, "select");
      (Spill, "spill");
    ]

(* Per-pass accumulators: [timing] entries are reported as the median
   over passes, [count] entries must repeat exactly across passes. *)
type pass = {
  timing : (string, float) Hashtbl.t;
  count : (string, int) Hashtbl.t;
}

let new_pass () = { timing = Hashtbl.create 64; count = Hashtbl.create 64 }

let addf tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let addi tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let account_result p mode (res : Allocator.result) (verdict : _ result) =
  let m = "core." ^ mode_name mode ^ "." in
  let st = res.Allocator.stats in
  (* A phase a mode never runs (the SSA family has no build or simplify)
     reads 0. *)
  List.iter (fun (_, name) -> addf p.timing (m ^ name ^ "_s") 0.) phases;
  List.iter
    (fun (_, ph, secs, minor, major) ->
      (match List.assoc_opt ph phases with
      | Some name -> addf p.timing (m ^ name ^ "_s") secs
      | None -> ());
      addf p.timing (m ^ "minor_words") minor;
      addf p.timing (m ^ "major_words") major)
    (Stats.by_phase st);
  let c k v = addi p.count (m ^ k) v in
  c "rounds" res.Allocator.rounds;
  c "full_builds" (Stats.counter_total st Stats.Full_builds);
  c "spilled_memory" res.Allocator.spilled_memory;
  c "spilled_remat" res.Allocator.spilled_remat;
  c "coalesced_copies" res.Allocator.coalesced_copies;
  c "briggs_tests" (Stats.counter_total st Stats.Briggs_tests);
  c "briggs_denied" (Stats.counter_total st Stats.Briggs_denied);
  c "build_pairs" (Stats.counter_total st Stats.Build_pairs);
  c "build_dupes" (Stats.counter_total st Stats.Build_dupes);
  c "live_ranges" res.Allocator.n_live_ranges;
  addi p.count "verify.unsupported" 0;
  match verdict with
  | Ok (r : Verify.Check.report) ->
      addi p.count "verify.uses_checked" r.Verify.Check.uses_checked;
      addi p.count "verify.instrs_matched" r.Verify.Check.instrs_matched
  | Error errs ->
      if List.exists Verify.Error.is_unsupported errs then
        addi p.count "verify.unsupported" 1

(* Span self times of one traced pass, summed per layer, in ms. *)
let account_spans p ss =
  Hashtbl.iter
    (fun name self ->
      let key =
        match name with
        | "compile" -> Some "trace.glue_ms"
        | "iloc.parse" -> Some "iloc.parse_ms"
        | "iloc.print" -> Some "iloc.print_ms"
        | "verify.check" -> Some "verify.check_ms"
        | n when String.ends_with ~suffix:".allocate" n ->
            Some (String.sub n 0 (String.length n - 9) ^ ".alloc_ms")
        | _ -> None
      in
      Option.iter (fun k -> addf p.timing k (self *. 1e3)) key)
    (self_times ss)

type run = {
  first : (Cfg.t * string) option array;
      (* per item: the first pass's allocated routine and its text *)
  lat : float list;  (* ms per compile *)
  lat_plain : float list;  (* traced run: compiles of untraced passes *)
  lat_traced : float list;  (* traced run: compiles of traced passes *)
  passes : pass list;
  rates : float list;  (* input instructions per second, per untraced pass *)
}

(* Run whole passes over [items] until [seconds] have elapsed and at
   least [min_passes] passes have run.  With [traced], passes alternate
   untraced/traced, so the run measures its own tracing overhead.
   [order] permutes a pass. *)
let compile_workload ?(min_passes = 1) ~seconds ~traced ~order items =
  let items = Array.of_list items in
  let n = Array.length items in
  let first = Array.make n None in
  let lat = ref [] and lat_plain = ref [] and lat_traced = ref [] in
  let passes = ref [] and rates = ref [] in
  let req = ref 0 in
  let deadline = now () +. seconds in
  let pass_no = ref 0 and last_pass = ref 0. in
  (* A traced run needs at least one traced pass.  Past that, a pass
     starts only if one as long as the last would end in time, so a run
     of ~10 s passes does not stop at two or three by a hair. *)
  let min_passes = if traced then max 2 min_passes else min_passes in
  while !pass_no < min_passes || now () +. !last_pass <= deadline do
    let p = new_pass () in
    tracing := traced && !pass_no mod 2 = 1;
    let mark = !spans in
    let pass_t0 = now () and pass_instrs = ref 0 in
    Array.iter
      (fun i ->
        let it = items.(i) in
        incr attempted;
        incr req;
        let t0 = now () in
        match compile ~req:!req it with
        | exception e ->
            fail "%s/%s: %s" it.label (mode_name it.mode) (Printexc.to_string e)
        | res, verdict, out -> (
            let dt = (now () -. t0) *. 1e3 in
            lat := dt :: !lat;
            if !tracing then addf p.timing "trace.compile_ms" dt;
            if traced then
              if !tracing then lat_traced := dt :: !lat_traced
              else lat_plain := dt :: !lat_plain;
            pass_instrs := !pass_instrs + it.instrs;
            account_result p it.mode res verdict;
            (match verdict with
            | Ok _ -> ()
            | Error errs ->
                fail "%s/%s: verifier: %s" it.label (mode_name it.mode)
                  (Verify.Error.to_string (List.hd errs)));
            match first.(i) with
            | None -> first.(i) <- Some (res.Allocator.cfg, out)
            | Some (_, out0) ->
                if out <> out0 then
                  fail "%s/%s: output differs from the first pass" it.label
                    (mode_name it.mode)))
      (order !pass_no n);
    last_pass := now () -. pass_t0;
    if not !tracing then
      rates := (float_of_int !pass_instrs /. !last_pass) :: !rates;
    if !tracing then account_spans p (spans_since mark);
    tracing := false;
    passes := p :: !passes;
    incr pass_no;
    (* Each pass starts from a collected heap, so the process's peak
       memory is that of one pass, not of garbage left by the last. *)
    Gc.full_major ()
  done;
  {
    first;
    lat = !lat;
    lat_plain = !lat_plain;
    lat_traced = !lat_traced;
    passes = List.rev !passes;
    rates = !rates;
  }

(* Reference check, outside the timed window: each item's allocated
   output must behave like its unallocated input under the
   interpreter.  Every later compile of an item printed the same text,
   so a mismatch fails all [compiles] of it.  Returns per-mode cycles
   and static output size. *)
let check_outputs ~compiles ~(items : item array) first =
  let cycles = Hashtbl.create 4 and size = ref 0 in
  Array.iteri
    (fun i it ->
      match first.(i) with
      | None -> ()
      | Some (out_cfg, _) -> (
          size := !size + n_instrs out_cfg;
          let interp cfg =
            span ~req:(-1) "sim.interp" (fun () -> Sim.Interp.run cfg)
          in
          match
            (interp (Iloc.Parser.routine it.text), interp out_cfg)
          with
          | exception e ->
              fail_n compiles "%s/%s: interpreter: %s" it.label
                (mode_name it.mode) (Printexc.to_string e)
          | reference, outcome ->
              if not (Sim.Interp.outcome_equal reference outcome) then
                fail_n compiles
                  "%s/%s: allocated code's outcome differs from the input's"
                  it.label (mode_name it.mode);
              addi cycles (mode_name it.mode)
                (Sim.Counts.cycles outcome.Sim.Interp.counts)))
    items;
  (cycles, !size)

let report_compile ~traced ~items r =
  let { first; lat; lat_plain; lat_traced; passes; rates } = r in
  let items = Array.of_list items in
  let modes = List.filter (fun m -> Array.exists (fun it -> it.mode = m) items) modes in
  let n_passes = List.length passes in
  tracing := traced;
  let sim_t0 = now () in
  let cycles, size = check_outputs ~compiles:n_passes ~items first in
  let sim_ms = (now () -. sim_t0) *. 1e3 in
  tracing := false;
  samples := ("compiles", List.length lat) :: ("passes", n_passes) :: !samples;
  (* A traced run reads its latencies from its untraced passes only. *)
  let lat = if traced then lat_plain else lat in
  let n = List.length lat in
  note "latency: from %d untraced compiles; highest percentile with >=10 samples beyond: %s"
    n (tail_label n);
  put "latency_p50_ms" "ms" (median lat);
  put "latency_p90_ms" "ms" (quantile lat 0.9);
  put "latency_p99_ms" "ms" (quantile lat 0.99);
  put "instrs_per_s" "1/s" (median rates);
  let total_cycles = Hashtbl.fold (fun _ v a -> a + v) cycles 0 in
  put "cycles" "count" (float_of_int total_cycles);
  put "out_instrs" "count" (float_of_int size);
  List.iter
    (fun m ->
      put ("sim." ^ mode_name m ^ ".cycles") "count"
        (float_of_int
           (Option.value ~default:0 (Hashtbl.find_opt cycles (mode_name m)))))
    modes;
  put "sim.interp_ms" "ms" sim_ms;
  (* Per-pass timings: median over the passes that recorded them. *)
  let keys = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) p.timing) passes;
  Hashtbl.iter
    (fun k () ->
      let vs = List.filter_map (fun p -> Hashtbl.find_opt p.timing k) passes in
      let unit =
        if String.ends_with ~suffix:"_ms" k then "ms"
        else if String.ends_with ~suffix:"_s" k then "s"
        else "words"
      in
      put k unit (median vs))
    keys;
  (* Per-pass counts: must repeat exactly in every pass. *)
  (match passes with
  | [] -> ()
  | p0 :: rest ->
      List.iteri
        (fun i p ->
          Hashtbl.iter
            (fun k v ->
              if Hashtbl.find_opt p.count k <> Some v then
                self_check_fail "count %s differs between pass 1 and pass %d" k
                  (i + 2))
            p0.count)
        rest;
      Hashtbl.iter (fun k v -> put k "count" (float_of_int v)) p0.count;
      let get k = Option.value ~default:0 (Hashtbl.find_opt p0.count k) in
      let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
      List.iter
        (fun m ->
          let m = "core." ^ mode_name m ^ "." in
          put (m ^ "build_dupe_ratio") "ratio"
            (ratio (get (m ^ "build_dupes")) (get (m ^ "build_pairs")));
          put (m ^ "briggs_accept_ratio") "ratio"
            (ratio
               (get (m ^ "briggs_tests") - get (m ^ "briggs_denied"))
               (get (m ^ "briggs_tests"))))
        modes);
  if traced then begin
    (* How much of the traced compile time the per-layer self times
       account for. *)
    let per_pass k =
      median (List.filter_map (fun p -> Hashtbl.find_opt p.timing k) passes)
    in
    let layers =
      [ "trace.glue_ms"; "iloc.parse_ms"; "iloc.print_ms"; "verify.check_ms" ]
      @ List.map (fun m -> "core." ^ mode_name m ^ ".alloc_ms") modes
    in
    let accounted = List.fold_left (fun a k -> a +. per_pass k) 0. layers in
    note "traced passes: layer self times sum to %.3f ms of %.3f ms compile time per pass"
      accounted (per_pass "trace.compile_ms");
    samples :=
      ("traced_compiles", List.length lat_traced)
      :: ("untraced_compiles", List.length lat_plain)
      :: !samples;
    let plain = median lat_plain and tr = median lat_traced in
    put "trace.overhead_frac" "ratio"
      (if plain > 0. then (tr -. plain) /. plain else 0.)
  end

(* ------------------------------------------------------------------ *)
(* Workload: kernels                                                   *)
(* ------------------------------------------------------------------ *)

(* A seeded permutation of [0, n) per pass: the seed fixes the order in
   which the (kernel, mode) pairs are compiled; the set never changes. *)
let shuffled ~seed pass n =
  let a = Array.init n Fun.id in
  let rng = Random.State.make [| 0x6b726e6c; seed; pass |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let kernels ~seed ~seconds ~traced =
  let lower = ref [] and optim = ref [] in
  let texts =
    timed_setup ~reps:15 ~key:Fun.id (fun () ->
        tracing := traced;
        let mark = !spans in
        let texts =
          List.map
            (fun (k : Suite.Kernels.kernel) ->
              let cfg =
                span ~req:(-1) "frontend.lower" (fun () -> Suite.Kernels.cfg_of k)
              in
              let cfg = span ~req:(-1) "opt.pipeline" (fun () -> Opt.Pipeline.run cfg) in
              (k.Suite.Kernels.name, Iloc.Printer.routine_to_string cfg))
            Suite.Kernels.all
        in
        tracing := false;
        let self = self_times (spans_since mark) in
        let get n = Option.value ~default:0. (Hashtbl.find_opt self n) *. 1e3 in
        lower := get "frontend.lower" :: !lower;
        optim := get "opt.pipeline" :: !optim;
        texts)
  in
  if traced then begin
    put "frontend.lower_ms" "ms" (median !lower);
    put "opt.pipeline_ms" "ms" (median !optim)
  end;
  inputs_digest :=
    Digest.to_hex (Digest.string (String.concat "\x00" (List.map snd texts)));
  let items =
    List.concat_map
      (fun mode ->
        List.map
          (fun (label, text) ->
            {
              label;
              mode;
              machine = Machine.standard;
              text;
              instrs = n_instrs (Iloc.Parser.routine text);
            })
          texts)
      modes
  in
  note "kernels: %d routines x %d modes on %s, %d input instructions per pass"
    (List.length texts) (List.length modes) Machine.standard.Machine.name
    (List.fold_left (fun a it -> a + it.instrs) 0 items);
  let r =
    compile_workload ~seconds ~traced ~order:(shuffled ~seed) items
  in
  report_compile ~traced ~items r

(* ------------------------------------------------------------------ *)
(* Workload: large                                                     *)
(* ------------------------------------------------------------------ *)

(* The 8+8 machine and widened generator pools of bench/scale.ml, at
   depth 2 and 128 statements: generator seed 7 gives a ~68k-instruction
   routine with ~47.8k live ranges, above
   [Remat.Interference.dense_node_limit], so the batched CSR build runs.
   A free draw per benchmark seed would not do: at equal size, routines
   from different generator seeds differ 2x in verifier time and
   simulated cycles, a spread no bound could absorb.  The benchmark seed
   instead picks [large_edits] seeded edits of that base routine
   ([Fuzz.Gen.mutate]), so every seed gives a different routine of the
   same size and shape. *)
let large_machine = Machine.make ~name:"scale" ~k_int:8 ~k_float:8
let large_base_seed = 7
let large_edits = 4

(* One compile takes ~6-9 s, so a run of 30 s would hold three or four;
   the workload runs at least this many, past --seconds if need be, so
   its medians rest on enough compiles.  A traced run counts its traced
   compiles too. *)
let large_min_compiles = 5

let large_config =
  {
    Fuzz.Gen.high_pressure with
    Fuzz.Gen.min_ivars = 20;
    max_ivars = 26;
    min_fvars = 12;
    max_fvars = 16;
    max_depth = 2;
    min_stmts = 128;
    max_stmts = 128;
  }

let large_routine seed =
  let cfg = ref (Fuzz.Gen.generate ~config:large_config large_base_seed) in
  for j = 0 to large_edits - 1 do
    cfg := Fuzz.Gen.mutate ~seed:((seed * 1_000_003) + j) !cfg
  done;
  Iloc.Printer.routine_to_string !cfg

let large ~seed ~seconds ~traced =
  let text = timed_setup ~reps:5 ~key:Fun.id (fun () -> large_routine seed) in
  inputs_digest := Digest.to_hex (Digest.string text);
  let items =
    [
      {
        label = "large";
        mode = Mode.Briggs_remat;
        machine = large_machine;
        text;
        instrs = n_instrs (Iloc.Parser.routine text);
      };
    ]
  in
  let r =
    compile_workload ~min_passes:large_min_compiles ~seconds ~traced
      ~order:(fun _ n -> Array.init n Fun.id)
      items
  in
  (match r.first.(0) with
  | Some _ -> ()
  | None -> self_check_fail "the large routine never compiled");
  note "large: %d input instructions on the %s machine (%d+%d registers)"
    (List.hd items).instrs large_machine.Machine.name large_machine.Machine.k_int
    large_machine.Machine.k_float;
  report_compile ~traced ~items r;
  let lrs =
    List.assoc_opt "core.briggs.live_ranges"
      (List.map (fun (n, v, _) -> (n, v)) !metrics)
  in
  match lrs with
  | Some lrs when lrs > float_of_int Remat.Interference.dense_node_limit ->
      note "large: %.0f live ranges > dense_node_limit %d: batched CSR build"
        lrs Remat.Interference.dense_node_limit
  | _ ->
      self_check_fail "large routine does not exceed dense_node_limit (%d)"
        Remat.Interference.dense_node_limit

(* ------------------------------------------------------------------ *)
(* Workload: serve-mix                                                 *)
(* ------------------------------------------------------------------ *)

(* The traffic: one open-loop client against [Server.serve_fds] over a
   socketpair, with jobs = 1.  The server runs in a thread of the
   client's domain, not in a domain of its own: on a 2-vCPU VM whose
   host is busy, two domains ping-ponging over the socket measured 1.2
   to 8.7 ms median latency from run to run, while one domain held
   within a few percent in the same period.

   The stream follows the repository's own serving load,
   [Serve.Loadgen.default] (what [ralloc bench serve] replays): its 32
   base routines, from its generator seeds, and per request a base
   drawn uniformly, sent as a seeded edit ([Fuzz.Gen.mutate], the
   incremental path) at its edit rate of 30%, else repeated (cache
   reads).  Four parts have no source in the repository.  They are
   stand-ins, each there to run one path:
   - [p_new]: 10% of requests are new routines (the cold path), drawn
     before Loadgen's draw;
   - [cache_capacity]: 24 entries, below the 32-routine working set, so
     inserts evict beside the hits (Loadgen's 512 never evicts);
   - [burst]: requests arrive in bursts of 8 that share a due time and
     one write, so the server drains each burst into one wave, and its
     wave batching and same-wave dedup run.  Loadgen's waves hold 32;
     8 leaves 260 bursts in the nominal segment, enough for medians
     over blocks;
   - [serve_gen]: routines of 6 statements at depth 2, smaller than
     Loadgen's 4 to 16 at depth 3, so the allocator core does little
     work per request and framing, protocol and cache keep a visible
     share.  With Loadgen's sizes each wave's allocation work followed
     the host's speed, and the median latency of 5 runs spread 0.23. *)
let load = Serve.Loadgen.default
let working_set = load.Serve.Loadgen.distinct
let p_edit = load.Serve.Loadgen.edit_rate
let p_new = 0.10
let cache_capacity = 24
let burst = 8

let serve_gen =
  { Fuzz.Gen.default with Fuzz.Gen.min_stmts = 6; max_stmts = 6; max_depth = 2 }

(* The nominal rate keeps the server lightly loaded: on a busy host a
   busier server turns each slowdown into queueing, and the latency
   figures swing between runs far beyond any bound. *)
let nominal_rps = 100.

(* The warm-up prefix is sent faster: it only has to fill the cache. *)
let warm_rps = 300.
let warm_requests = 256
(* 260 bursts: 20 blocks of 13, and 20 samples beyond the p99. *)
let nominal_requests = 2080

(* Latency medians are taken per block of consecutive requests, then
   over the blocks, so a slow stretch of the host that covers fewer than
   half the blocks moves neither p50 nor p90. *)
let nominal_blocks = 20

(* Saturation is measured in blocks of whole bursts; the median block
   throughput is robust to a stall of the host inside a few blocks. *)
let saturation_blocks = 10
let saturation_block = 128

(* Requests per rate step: a p99 with six samples beyond.  The number of
   steps is fixed, so every run of a seed sends the same requests and
   its output gate does the same work. *)
let step_requests = 600
let rate_steps = 4

(* The p99 limit that defines serve.max_rps (BENCHMARK.json's serve-mix
   entry states it): above the nominal rate's p99 of 18-45 ms, where a
   request waits for its whole burst's wave. *)
let p99_limit_ms = 50.

(* Unanswered request bytes the client lets into the socket: far below
   the kernel's socket buffer, so the client's blocking writes can never
   wait on a server that is itself blocked writing responses.  A burst
   alone may exceed it when nothing is outstanding. *)
let inflight_cap = 96 * 1024

type kind = Repeat | Edit | New

type sreq = { rq : Protocol.request; kind : kind; text : string; instrs : int }

let kind_name = function Repeat -> "repeat" | Edit -> "edit" | New -> "new"

type stream = {
  rng : Random.State.t;
  bases : (string * string * int * Cfg.t) array;  (* text, hash, instrs, cfg *)
}

let config = load.Serve.Loadgen.alloc

(* The working set is the same for every seed, so the code-quality
   totals measured on it (cycles, out_instrs) do not move between seeds;
   the seed draws the traffic: order, edits and new routines. *)
let make_stream seed =
  let rng = Random.State.make [| 0x73657276; seed |] in
  let bases =
    Array.init working_set (fun i ->
        let cfg =
          Fuzz.Gen.generate ~config:serve_gen (load.Serve.Loadgen.seed + i)
        in
        (Iloc.Printer.routine_to_string cfg, Cfg.content_hash cfg, n_instrs cfg, cfg))
  in
  { rng; bases }

let next_request st =
  if Random.State.float st.rng 1.0 < p_new then
    let cfg = Fuzz.Gen.generate ~config:serve_gen (Random.State.bits st.rng) in
    let text = Iloc.Printer.routine_to_string cfg in
    { rq = Protocol.Alloc { config; text }; kind = New; text; instrs = n_instrs cfg }
  else
    let text, hash, instrs, cfg = st.bases.(Random.State.int st.rng working_set) in
    if Random.State.float st.rng 1.0 < p_edit then
      let cfg = Fuzz.Gen.mutate ~seed:(Random.State.bits st.rng) cfg in
      let text = Iloc.Printer.routine_to_string cfg in
      {
        rq = Protocol.Edit { config; base = hash; text };
        kind = Edit;
        text;
        instrs = n_instrs cfg;
      }
    else { rq = Protocol.Alloc { config; text }; kind = Repeat; text; instrs }

type reply = {
  r_due : float;
  r_sent : float;
  r_arrived : float;
  r_resp : (Protocol.response, string) result option;  (* None: missing *)
  r_req : sreq;
  r_backlog : int;  (* requests outstanding when its burst was sent *)
  r_traced : bool;
}

type conn = { fd : Unix.file_descr; reader : Frame.reader; client : Serve.Client.t }

(* One segment.  Requests go out in bursts of [burst]: burst [b] is due
   at [start + b * burst / rate] and written, all its frames at once, as
   soon as it is due and fewer than [window] bursts are outstanding.
   Responses arrive in request order.  Each request is timed from its
   burst's due time.  Returns when every request is answered or the
   connection fails. *)
let run_segment ?(window = max_int) c ~traced ~rate ~req_base (reqs : sreq array) =
  let n = Array.length reqs in
  let n_bursts = (n + burst - 1) / burst in
  let lo b = b * burst and hi b = min n ((b + 1) * burst) in
  let t_start = now () +. 0.002 in
  let due b = t_start +. (float_of_int (lo b) /. rate) in
  let rsize i = String.length reqs.(i).text + 128 in
  let size =
    Array.init n_bursts (fun b ->
        let s = ref 0 in
        for i = lo b to hi b - 1 do
          s := !s + rsize i
        done;
        !s)
  in
  let sent = Array.make n_bursts 0. and backlog = Array.make n_bursts 0 in
  let out = Array.make n None in
  (* [next]: the next burst to send; [got]: responses received. *)
  let next = ref 0 and got = ref 0 and inflight = ref 0 and broken = ref false in
  let sent_reqs () = min n (!next * burst) in
  let can_send () =
    !next - (!got / burst) < window
    && (sent_reqs () = !got || !inflight + size.(!next) <= inflight_cap)
  in
  (* In a traced run every other burst is traced: its send and receive
     spans are children of a wave span from due time to the arrival of
     its last response. *)
  let traced_burst b = traced && b mod 2 = 1 in
  let wave_span = Array.init n_bursts (fun b -> if traced_burst b then fresh_id () else -1) in
  let traced_call b name f =
    tracing := true;
    current := wave_span.(b);
    let v = span ~req:(req_base + lo b) name f in
    current := -1;
    tracing := false;
    v
  in
  let send b =
    let buf = Buffer.create size.(b) in
    for i = lo b to hi b - 1 do
      Frame.encode buf (Protocol.encode_request reqs.(i).rq)
    done;
    Frame.write_all c.fd (Buffer.contents buf)
  in
  while !got < n && not !broken do
    let t = now () in
    while !next < n_bursts && due !next <= t && can_send () do
      let b = !next in
      backlog.(b) <- lo b - !got;
      if traced_burst b then traced_call b "client.send" (fun () -> send b) else send b;
      sent.(b) <- now ();
      inflight := !inflight + size.(b);
      incr next
    done;
    let rec drain () =
      if !got < sent_reqs () then
        match Frame.poll c.reader with
        | None -> ()
        | Some (Frame.Frame payload) ->
            let i = !got in
            let b = i / burst in
            let arrived = now () in
            let parse () = Protocol.parse_response payload in
            let resp =
              if traced_burst b then begin
                let r = traced_call b "client.receive" parse in
                if i = hi b - 1 then
                  record ~id:wave_span.(b) ~parent:(-1) ~req:(req_base + lo b)
                    "serve.wave" (due b) (now ());
                r
              end
              else parse ()
            in
            out.(i) <- Some (arrived, resp);
            inflight := !inflight - rsize i;
            incr got;
            drain ()
        | Some Frame.End_of_input | Some (Frame.Corrupt _) -> broken := true
    in
    drain ();
    if !got < n && not !broken then begin
      let wait =
        if !next < n_bursts && can_send () then max 0. (due !next -. now ())
        else 0.05
      in
      try ignore (Unix.select [ c.fd ] [] [] wait)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  Array.init n (fun i ->
      let b = i / burst in
      let arrived, resp =
        match out.(i) with
        | Some (a, r) -> (a, Some r)
        | None -> (nan, None)
      in
      {
        r_due = due b;
        r_sent = sent.(b);
        r_arrived = arrived;
        r_resp = resp;
        r_req = reqs.(i);
        r_backlog = backlog.(b);
        r_traced = traced_burst b;
      })

(* Once a segment ends, an allocated response keeps only the digest of
   its text: the output gate compares digests, and the run's memory
   stays the server's. *)
let compact r =
  match r.r_resp with
  | Some (Ok (Protocol.Allocated a)) ->
      {
        r with
        r_resp = Some (Ok (Protocol.Allocated { a with text = Digest.string a.text }));
      }
  | _ -> r

let latency_ms r = (r.r_arrived -. r.r_due) *. 1e3

let answered r =
  match r.r_resp with Some (Ok (Protocol.Allocated _)) -> true | _ -> false

(* A rate passes when every request was answered, the p99 latency meets
   the limit, and the backlog did not grow: the mean backlog over the
   last quarter of the sends stays within two bursts of the first
   quarter's. *)
let meets_limit replies =
  let n = Array.length replies in
  let lats = Array.to_list (Array.map latency_ms replies) in
  let q = max 1 (n / 4) in
  let mean_backlog lo hi =
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + replies.(i).r_backlog
    done;
    float_of_int !s /. float_of_int (hi - lo)
  in
  Array.for_all answered replies
  && quantile lats 0.99 <= p99_limit_ms
  && mean_backlog (n - q) n <= mean_backlog 0 q +. float_of_int (2 * burst)

let cache_stats c =
  match Serve.Client.request c.client Protocol.Stats with
  | Ok (Protocol.Cache_stats s) -> s
  | Ok r -> failwith ("unexpected stats reply: " ^ Protocol.encode_response r)
  | Error e -> failwith ("stats request failed: " ^ e)

(* The segments have fixed sizes, which take about 30 s (the run length
   BENCHMARK.json sets) at the nominal rate and the measured capacity;
   [seconds] does not change them, so every run of a seed sends the same
   requests. *)
let serve_mix ~seed ~seconds:_ ~traced =
  (* Set-up: the working set, the warm-up and nominal streams, the
     socketpair and the server thread.  Repeated; all but the last
     server are shut down unused. *)
  let start_server () =
    let st = make_stream seed in
    let warm = Array.init warm_requests (fun i ->
        if i < working_set then
          let text, _, instrs, _ = st.bases.(i) in
          { rq = Protocol.Alloc { config; text }; kind = Repeat; text; instrs }
        else next_request st)
    in
    let nominal = Array.init nominal_requests (fun _ -> next_request st) in
    let cfd, sfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let server =
      Serve.Server.create
        ~config:
          { Serve.Server.default_config with jobs = 1; cache_capacity }
        ()
    in
    let thread =
      Thread.create
        (fun () -> Serve.Server.serve_fds server ~in_fd:sfd ~out_fd:sfd)
        ()
    in
    let c =
      {
        fd = cfd;
        reader = Frame.reader cfd;
        client = Serve.Client.of_fds ~in_fd:cfd ~out_fd:cfd;
      }
    in
    (st, warm, nominal, c, server, thread, sfd)
  in
  let stop (_, _, _, c, server, thread, sfd) =
    (try Serve.Client.send c.client Protocol.Shutdown with _ -> ());
    (try ignore (Serve.Client.receive c.client) with _ -> ());
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ());
    Thread.join thread;
    Serve.Server.shutdown server;
    Unix.close c.fd;
    Unix.close sfd
  in
  let key (st, warm, nominal, _, _, _, _) =
    ( Array.map (fun (t, _, _, _) -> t) st.bases,
      Array.map (fun r -> r.text) warm,
      Array.map (fun r -> r.text) nominal )
  in
  let env = timed_setup ~discard:stop ~reps:11 ~key start_server in
  let st, warm, nominal, c, _, _, _ = env in
  inputs_digest :=
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            (Array.to_list (Array.map (fun r -> r.text) (Array.append warm nominal)))));
  let t_start = now () in
  let all = ref [] in
  let req_base = ref 0 in
  (* Only the nominal segment is traced; the others measure rates. *)
  let segment ?window ?(traced = false) ~rate reqs =
    let replies =
      Array.map compact (run_segment ?window c ~traced ~rate ~req_base:!req_base reqs)
    in
    req_base := !req_base + Array.length reqs;
    all := replies :: !all;
    (* As between compile passes: the next segment starts from a
       collected heap. *)
    Gc.full_major ();
    replies
  in
  (* Warm-up prefix: fills the cache; not measured. *)
  ignore (segment ~rate:warm_rps warm);
  let s0 = cache_stats c in
  let nom = segment ~traced ~rate:nominal_rps nominal in
  let s1 = cache_stats c in
  (* Saturation: every burst due at once, one burst in flight, so the
     completion rate is the server's capacity for one client.  With more
     bursts in flight, the waves, and with them the rate, depend on how
     the client and server threads happen to interleave. *)
  let sat =
    List.init saturation_blocks (fun _ ->
        let b =
          segment ~window:1 ~rate:infinity
            (Array.init saturation_block (fun _ -> next_request st))
        in
        let secs = b.(saturation_block - 1).r_arrived -. b.(0).r_due in
        float_of_int saturation_block /. secs)
  in
  let capacity = median sat in
  note "saturation blocks, req/s: %s"
    (String.concat " " (List.map (Printf.sprintf "%.0f") sat));
  (* serve.max_rps: bisect the offered rate geometrically between the
     nominal rate (or below it, if the nominal rate fails) and the
     capacity, in [rate_steps] steps. *)
  let nominal_ok = meets_limit nom in
  let lo = ref (if nominal_ok then nominal_rps else 0.) in
  let hi = ref (if nominal_ok then capacity else Float.min capacity nominal_rps) in
  for _ = 1 to rate_steps do
    let r = if !lo = 0. then !hi /. 1.5 else sqrt (!lo *. !hi) in
    let replies = segment ~rate:r (Array.init step_requests (fun _ -> next_request st)) in
    if meets_limit replies then lo := r else hi := r
  done;
  let measured_s = now () -. t_start in
  let replies = Array.concat (List.rev !all) in
  stop env;
  attempted := !attempted + Array.length replies;
  (* Latency figures come from the nominal segment, and in a traced run
     from its untraced bursts only. *)
  let nom_l = Array.to_list nom in
  let plain r = answered r && not r.r_traced in
  let lats = List.map latency_ms (List.filter plain nom_l) in
  (* p50 and p90 are medians over the blocks; p99 needs the whole
     segment for ten samples beyond it. *)
  let block_size = nominal_requests / nominal_blocks in
  let blocks = List.init nominal_blocks (fun b -> Array.sub nom (b * block_size) block_size) in
  let block_lats =
    List.map (fun b -> List.map latency_ms (List.filter plain (Array.to_list b))) blocks
  in
  note "nominal blocks, p50 ms: %s"
    (String.concat " " (List.map (fun l -> Printf.sprintf "%.1f" (median l)) block_lats));
  put "latency_p50_ms" "ms" (median (List.map median block_lats));
  put "latency_p90_ms" "ms" (median (List.map (fun l -> quantile l 0.9) block_lats));
  (* Input instructions answered per second of burst turnaround (due
     time to the burst's last response): the rate one client gets when
     each burst waits for the last, as a compile pass does.  Median over
     the blocks. *)
  let turnaround = Hashtbl.create 128 in
  Array.iteri
    (fun i r ->
      let b = i / burst in
      let t = Option.value ~default:r.r_due (Hashtbl.find_opt turnaround b) in
      if answered r then Hashtbl.replace turnaround b (Float.max t r.r_arrived)
      else Hashtbl.replace turnaround b t)
    nom;
  put "instrs_per_s" "1/s"
    (median
       (List.mapi
          (fun k blk ->
            let instrs = ref 0 and secs = ref 0. in
            Array.iteri
              (fun j r ->
                let i = (k * block_size) + j in
                if plain r then begin
                  instrs := !instrs + r.r_req.instrs;
                  (* A burst's turnaround, counted once, at its first
                     request. *)
                  if i mod burst = 0 then
                    secs := !secs +. Hashtbl.find turnaround (i / burst) -. r.r_due
                end)
              blk;
            float_of_int !instrs /. !secs)
          blocks));
  put "latency_p99_ms" "ms" (quantile lats 0.99);
  put "serve.capacity_rps" "1/s" capacity;
  put "serve.max_rps" "1/s" !lo;
  samples :=
    ("requests", Array.length replies)
    :: ("nominal_requests", List.length lats)
    :: ("saturation_requests", saturation_blocks * saturation_block)
    :: ("rate_steps", rate_steps)
    :: !samples;
  note "serve-mix: %d requests in %.1f s; bursts of %d; nominal %.0f req/s; capacity %.1f req/s; %d rate steps; max rate %.1f req/s (p99 limit %.0f ms)"
    (Array.length replies) measured_s burst nominal_rps capacity rate_steps !lo p99_limit_ms;
  note "latency: from %d untraced nominal requests; highest percentile with >=10 samples beyond: %s"
    (List.length lats) (tail_label (List.length lats));
  (* Per-layer, from the nominal segment. *)
  let by ?(only = fun _ -> true) source =
    List.filter_map
      (fun r ->
        match r.r_resp with
        | Some (Ok (Protocol.Allocated { source = s; _ })) when s = source && only r ->
            Some (latency_ms r)
        | _ -> None)
      nom_l
  in
  List.iter
    (fun (name, src) ->
      let l = by ~only:plain src in
      samples := ("nominal_" ^ name, List.length l) :: !samples;
      put ("serve." ^ name ^ "_p50_ms") "ms" (median l);
      put ("serve." ^ name ^ "_p90_ms") "ms" (quantile l 0.9))
    [ ("hit", Protocol.Hit); ("incremental", Protocol.Incremental); ("cold", Protocol.Cold) ];
  let n_nom = float_of_int (List.length nom_l) in
  put "serve.hit_rate" "ratio" (float_of_int (List.length (by Protocol.Hit)) /. n_nom);
  put "serve.evictions" "count"
    (float_of_int (s1.Protocol.evictions - s0.Protocol.evictions));
  let edits = List.filter (fun r -> r.r_req.kind = Edit) nom_l in
  let fallbacks =
    List.filter
      (fun r ->
        match r.r_resp with
        | Some (Ok (Protocol.Allocated { source = Protocol.Cold; _ })) -> true
        | _ -> false)
      edits
  in
  put "serve.edit_fallback_ratio" "ratio"
    (if edits = [] then 0.
     else float_of_int (List.length fallbacks) /. float_of_int (List.length edits));
  put "serve.gen_late_p99_ms" "ms"
    (quantile (List.map (fun r -> (r.r_sent -. r.r_due) *. 1e3) nom_l) 0.99);
  put "serve.backlog_max" "count"
    (float_of_int (List.fold_left (fun a r -> max a r.r_backlog) 0 nom_l));
  let full_rebuilds =
    Array.fold_left
      (fun a r ->
        match r.r_resp with
        | Some
            (Ok
              (Protocol.Allocated
                { source = Protocol.Incremental; stats; _ }))
          when stats.Protocol.full_builds <> stats.Protocol.rounds - 1 ->
            a + 1
        | _ -> a)
      0 replies
  in
  put "serve.incremental_full_builds" "count" (float_of_int full_rebuilds);
  let kinds = Hashtbl.create 3 in
  Array.iter (fun r -> addi kinds (kind_name r.r_req.kind) 1) replies;
  Hashtbl.iter (fun k v -> samples := ("requests_" ^ k, v) :: !samples) kinds;
  (* Span self times, mean per traced request. *)
  if traced then begin
    let in_nominal s = s.req >= warm_requests && s.req < warm_requests + nominal_requests in
    let nominal_spans = List.filter in_nominal !spans in
    let self = self_times nominal_spans in
    let n_traced = List.length (List.filter (fun r -> r.r_traced) nom_l) in
    List.iter
      (fun (name, key) ->
        put key "ms"
          (if n_traced = 0 then 0.
           else
             Option.value ~default:0. (Hashtbl.find_opt self name)
             *. 1e3 /. float_of_int n_traced))
      [
        ("client.send", "client.send_ms");
        ("client.receive", "client.receive_ms");
        ("serve.wave", "serve.server_ms");
      ];
    let lat_of tr =
      List.filter (fun r -> answered r && r.r_traced = tr) nom_l |> List.map latency_ms
    in
    let plain = median (lat_of false) and tr = median (lat_of true) in
    put "trace.overhead_frac" "ratio" (if plain > 0. then (tr -. plain) /. plain else 0.)
  end;
  (* Output gate, outside the timed window: every Allocated text must
     equal a cold allocation of the same routine. *)
  let machine = Protocol.machine_of_config config in
  let allocate text =
    Allocator.allocate ~mode:config.Protocol.mode ~machine (Iloc.Parser.routine text)
  in
  let expected = Hashtbl.create 1024 in
  let n_cold = ref 0 in
  let cold text =
    match Hashtbl.find_opt expected text with
    | Some e -> e
    | None ->
        (* Collect now and then, so the gate's garbage does not set the
           process's peak memory. *)
        incr n_cold;
        if !n_cold mod 256 = 0 then Gc.full_major ();
        let e =
          match allocate text with
          | res -> Ok (Digest.string (Iloc.Printer.routine_to_string res.Allocator.cfg))
          | exception ex -> Error (Printexc.to_string ex)
        in
        Hashtbl.add expected text e;
        e
  in
  Array.iteri
    (fun i r ->
      match r.r_resp with
      | None -> fail "request %d (%s): no response" i (kind_name r.r_req.kind)
      | Some (Error e) -> fail "request %d: unparsable response: %s" i e
      | Some (Ok (Protocol.Allocated { text = digest; _ })) -> (
          match cold r.r_req.text with
          | Ok d ->
              if digest <> d then
                fail "request %d (%s): response differs from a cold allocation" i
                  (kind_name r.r_req.kind)
          | Error e -> fail "request %d: cold allocation raised %s" i e)
      | Some (Ok resp) ->
          fail "request %d (%s): %s" i (kind_name r.r_req.kind)
            (String.trim (Protocol.encode_response resp)))
    replies;
  (* Code quality over the working set; each allocation must behave like
     its input under the interpreter. *)
  let cycles = ref 0 and size = ref 0 in
  let sim_t0 = now () in
  tracing := traced;
  Array.iteri
    (fun i (text, _, _, cfg) ->
      match allocate text with
      | exception e -> fail "working set %d: allocation raised %s" i (Printexc.to_string e)
      | res -> (
          let out = res.Allocator.cfg in
          size := !size + n_instrs out;
          let interp c = span ~req:(-1) "sim.interp" (fun () -> Sim.Interp.run c) in
          match (interp cfg, interp out) with
          | exception e ->
              fail "working set %d: interpreter: %s" i (Printexc.to_string e)
          | reference, outcome ->
              if not (Sim.Interp.outcome_equal reference outcome) then
                fail "working set %d: allocated code's outcome differs from the input's" i;
              cycles := !cycles + Sim.Counts.cycles outcome.Sim.Interp.counts))
    st.bases;
  tracing := false;
  put "sim.interp_ms" "ms" ((now () -. sim_t0) *. 1e3);
  put "cycles" "count" (float_of_int !cycles);
  put ("sim." ^ mode_name config.Protocol.mode ^ ".cycles") "count"
    (float_of_int !cycles);
  put "out_instrs" "count" (float_of_int !size)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "kernels | large | serve-mix");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measurement time");
      ("--trace", Arg.Set_int trace, "0: end-to-end run; 1: traced run");
      ("--spans", Arg.Set_string spans_out, "file for the traced run's spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  (match !workload with
  | "kernels" -> kernels ~seed ~seconds ~traced
  | "large" -> large ~seed ~seconds ~traced
  | "serve-mix" -> serve_mix ~seed ~seconds ~traced
  | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2);
  if traced && !spans_out <> "" then write_spans !spans_out;
  put "failed_frac" "ratio"
    (if !attempted = 0 then 0.
     else float_of_int !failed /. float_of_int !attempted);
  let ms = List.sort compare !metrics in
  List.iter (fun s -> print_endline ("# " ^ s)) (List.rev !notes);
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-36s %16s %s\n" name (json_num v) unit)
    ms;
  List.iter (fun m -> print_endline ("! " ^ m)) (List.rev !failure_msgs);
  let fields =
    [
      ("workload", json_string !workload);
      ("seed", string_of_int seed);
      ("trace", string_of_int !trace);
      ("ocaml", json_string Sys.ocaml_version);
      ("inputs_digest", json_string !inputs_digest);
      ("correct", string_of_bool (!failed = 0 && !self_check_ok));
      ("attempted", string_of_int !attempted);
      ("failed", string_of_int !failed);
      ( "failures",
        "[" ^ String.concat "," (List.rev_map json_string !failure_msgs) ^ "]" );
      ( "samples",
        "{"
        ^ String.concat ","
            (List.rev_map
               (fun (k, v) -> Printf.sprintf "%s:%d" (json_string k) v)
               !samples)
        ^ "}" );
      ( "metrics",
        "{"
        ^ String.concat ","
            (List.map
               (fun (name, v, unit) ->
                 Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name)
                   (json_num v) (json_string unit))
               ms)
        ^ "}" );
    ]
  in
  print_endline
    ("{"
    ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
    ^ "}")
