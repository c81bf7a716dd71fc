(* The serving benchmark: replay a deterministic stream of fuzz-generated
   routines (a configurable mix of repeats and seeded edits) through
   [Server.handle_batch] in fixed-size waves, measuring latency,
   throughput and cache behavior.

   The request stream is a pure function of (seed, requests, distinct,
   edit_rate) and the wave size is independent of the job count, so the
   concatenated response bytes — digested into [s_output_digest] — must
   be identical for any [-j]: that is the determinism property CI
   compares across -j1/-j2.  Wall-clock latencies are measured per wave
   (every request in a wave gets the wave's turnaround) and never enter
   the digest. *)

module Gen = Fuzz.Gen

type config = {
  requests : int;
  distinct : int;  (* distinct base routines *)
  edit_rate : float;  (* fraction of requests that are seeded edits *)
  seed : int;
  jobs : int;
  wave : int;  (* requests per handle_batch wave *)
  cache_capacity : int;
  alloc : Protocol.config;
  gen : Gen.config;
}

let default =
  {
    requests = 1000;
    distinct = 32;
    edit_rate = 0.3;
    seed = 1;
    jobs = 1;
    wave = 32;
    cache_capacity = 512;
    alloc = Protocol.standard_config;
    gen = Gen.default;
  }

type summary = {
  s_requests : int;
  s_distinct : int;
  s_edit_rate : float;
  s_jobs : int;
  s_wave : int;
  s_seed : int;
  s_duration : float;  (* seconds *)
  s_throughput : float;  (* requests per second *)
  s_p50_ms : float;
  s_p99_ms : float;
  s_mean_ms : float;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_insertions : int;
  s_hit_rate : float;  (* hits / (hits + misses) *)
  s_cold : int;  (* responses allocated from scratch *)
  s_hit_responses : int;  (* responses served from cache *)
  s_incremental : int;  (* responses via the incremental path *)
  s_edits : int;  (* edit requests issued *)
  s_edit_fallbacks : int;  (* edit requests answered cold *)
  s_errors : int;
  s_incremental_rebuilds : int;
      (* incremental responses whose stats show a first-round full build
         — the "no full rebuild" acceptance gate; must be 0 *)
  s_output_digest : string;  (* MD5 over the concatenated responses *)
}

type stream_item = { rq : Protocol.request; is_edit : bool }

(* The deterministic request stream. *)
let build_stream (c : config) =
  let rng = Random.State.make [| 0x53455256; c.seed |] in
  let bases = Array.init c.distinct (fun i -> Gen.generate ~config:c.gen (c.seed + i)) in
  let base_texts = Array.map Iloc.Printer.routine_to_string bases in
  let base_hashes = Array.map Iloc.Cfg.content_hash bases in
  List.init c.requests (fun n ->
      let b = Random.State.int rng c.distinct in
      let is_edit = Random.State.float rng 1.0 < c.edit_rate in
      if is_edit then
        let edited = Gen.mutate ~seed:((c.seed * 1_000_003) + n) bases.(b) in
        {
          rq =
            Protocol.Edit
              {
                config = c.alloc;
                base = base_hashes.(b);
                text = Iloc.Printer.routine_to_string edited;
              };
          is_edit = true;
        }
      else
        { rq = Protocol.Alloc { config = c.alloc; text = base_texts.(b) };
          is_edit = false })

let rec chunks k = function
  | [] -> []
  | l ->
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (n - 1) (x :: acc) rest
      in
      let c, rest = take k [] l in
      c :: chunks k rest

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (Float.of_int n *. q) in
    sorted.(min (n - 1) idx)

let run (c : config) =
  let stream = build_stream c in
  let server =
    Server.create
      ~config:
        {
          Server.jobs = c.jobs;
          cache_capacity = c.cache_capacity;
          max_frame = Frame.default_max_frame;
          batch_limit = max 1 c.wave;
        }
      ()
  in
  let digest_buf = Buffer.create (1 lsl 16) in
  let latencies = ref [] in
  let cold = ref 0
  and hits = ref 0
  and incr_ = ref 0
  and errors = ref 0
  and fallbacks = ref 0
  and rebuilds = ref 0 in
  let t_start = Unix.gettimeofday () in
  List.iter
    (fun wave_items ->
      let reqs = List.map (fun i -> Ok i.rq) wave_items in
      let t0 = Unix.gettimeofday () in
      let responses = Server.handle_batch server reqs in
      let t1 = Unix.gettimeofday () in
      let lat = (t1 -. t0) *. 1000. /. Float.of_int (List.length wave_items) in
      List.iter2
        (fun (item : stream_item) resp ->
          latencies := lat :: !latencies;
          Buffer.add_string digest_buf (Protocol.encode_response resp);
          Buffer.add_char digest_buf '\x00';
          match resp with
          | Protocol.Allocated { source; stats; _ } -> (
              (match source with
              | Protocol.Cold ->
                  incr cold;
                  if item.is_edit then incr fallbacks
              | Protocol.Hit -> incr hits
              | Protocol.Incremental ->
                  incr incr_;
                  if stats.Protocol.full_builds <> stats.Protocol.rounds - 1
                  then incr rebuilds))
          | Protocol.Err _ -> incr errors
          | _ -> ())
        wave_items responses)
    (chunks (max 1 c.wave) stream);
  let duration = Unix.gettimeofday () -. t_start in
  let cs = Server.cache_counters server in
  let entries_hits = cs.Protocol.hits
  and entries_misses = cs.Protocol.misses
  and evictions = cs.Protocol.evictions
  and insertions = cs.Protocol.insertions in
  Server.shutdown server;
  let lats = Array.of_list (List.rev !latencies) in
  let sorted = Array.copy lats in
  Array.sort Float.compare sorted;
  let mean =
    if Array.length lats = 0 then 0.
    else Array.fold_left ( +. ) 0. lats /. Float.of_int (Array.length lats)
  in
  let edits = List.length (List.filter (fun i -> i.is_edit) stream) in
  {
    s_requests = c.requests;
    s_distinct = c.distinct;
    s_edit_rate = c.edit_rate;
    s_jobs = c.jobs;
    s_wave = c.wave;
    s_seed = c.seed;
    s_duration = duration;
    s_throughput =
      (if duration > 0. then Float.of_int c.requests /. duration else 0.);
    s_p50_ms = percentile sorted 0.50;
    s_p99_ms = percentile sorted 0.99;
    s_mean_ms = mean;
    s_hits = entries_hits;
    s_misses = entries_misses;
    s_evictions = evictions;
    s_insertions = insertions;
    s_hit_rate =
      (let tot = entries_hits + entries_misses in
       if tot = 0 then 0. else Float.of_int entries_hits /. Float.of_int tot);
    s_cold = !cold;
    s_hit_responses = !hits;
    s_incremental = !incr_;
    s_edits = edits;
    s_edit_fallbacks = !fallbacks;
    s_errors = !errors;
    s_incremental_rebuilds = !rebuilds;
    s_output_digest = Digest.to_hex (Digest.string (Buffer.contents digest_buf));
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let summary_to_json (s : summary) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l) fmt in
  line "{\n";
  line "  \"bench\": \"serve\",\n";
  line "  \"requests\": %d,\n" s.s_requests;
  line "  \"distinct\": %d,\n" s.s_distinct;
  line "  \"edit_rate\": %.3f,\n" s.s_edit_rate;
  line "  \"jobs\": %d,\n" s.s_jobs;
  line "  \"wave\": %d,\n" s.s_wave;
  line "  \"seed\": %d,\n" s.s_seed;
  line "  \"duration_s\": %.4f,\n" s.s_duration;
  line "  \"throughput_rps\": %.1f,\n" s.s_throughput;
  line "  \"latency_ms\": { \"p50\": %.4f, \"p99\": %.4f, \"mean\": %.4f },\n"
    s.s_p50_ms s.s_p99_ms s.s_mean_ms;
  line
    "  \"cache\": { \"hits\": %d, \"misses\": %d, \"evictions\": %d, \
     \"insertions\": %d, \"hit_rate\": %.4f },\n"
    s.s_hits s.s_misses s.s_evictions s.s_insertions s.s_hit_rate;
  line
    "  \"responses\": { \"cold\": %d, \"hit\": %d, \"incremental\": %d, \
     \"errors\": %d },\n"
    s.s_cold s.s_hit_responses s.s_incremental s.s_errors;
  line "  \"edits\": { \"issued\": %d, \"fallbacks\": %d },\n" s.s_edits
    s.s_edit_fallbacks;
  line "  \"incremental_rebuilds\": %d,\n" s.s_incremental_rebuilds;
  line "  \"output_digest\": %s\n"
    (Suite.Report.json_string s.s_output_digest);
  line "}\n";
  Buffer.contents b

let save path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (summary_to_json s))
