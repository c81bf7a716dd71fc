(* The allocation server.

   Requests are processed in {e waves}: the loop takes one blocking
   frame, opportunistically drains whatever further complete frames are
   already pending (up to [batch_limit]), and hands the wave to
   [handle_batch].  A wave runs in three passes:

   A. {e Plan} (sequential, read-only): parse each routine, derive its
      cache key, and decide — answer directly (errors, stats, bye),
      serve from cache, share the work of an identical earlier request
      in the same wave, or schedule an allocation work item.

   B. {e Allocate} (parallel): the work items fan out across the
      persistent {!Suite.Pool}.  Items are independent by construction —
      every item owns its parsed routine, and the only shared structure
      is an immutable {!Remat.Allocator.snapshot} (incremental items
      deep-copy its graph before mutating).  Each item makes one
      allocator call, so its front half, renumbering, liveness and
      build run once per item: an edit with a cached base snapshot calls
      [allocate_incremental], which continues cold when the skeleton
      check fails; any other item calls [allocate_snapshot], whose
      snapshot is its own first round's and is kept in the cache entry
      for later edits.  Each item catches its own exceptions into a
      per-item [Error].

   C. {e Replay} (sequential, in request order): perform every cache
      read and write, count hits/misses/evictions, and assemble
      responses.

   Determinism under [-j]: pass A and C are sequential and see only the
   cache (mutated in request order in C); pass B's results land in
   task-order slots ({!Suite.Pool.await}); allocation itself is
   deterministic.  So the byte stream of responses — including every
   hit/miss label and cache counter — is a pure function of the request
   stream and the wave boundaries, independent of the job count. *)

module Allocator = Remat.Allocator
module Stats = Remat.Stats

type config = {
  jobs : int;
  cache_capacity : int;
  max_frame : int;
  batch_limit : int;  (* max requests per wave *)
}

let default_config =
  {
    jobs = 1;
    cache_capacity = 512;
    max_frame = Frame.default_max_frame;
    batch_limit = 64;
  }

type entry = {
  e_hash : string;  (* content hash of the input routine *)
  e_text : string;  (* allocated routine text *)
  e_stats : Protocol.alloc_stats;
  e_snapshot : Allocator.snapshot option;
}

type t = {
  config : config;
  pool : Suite.Pool.t;
  cache : entry Cache.t;
  mutable stopping : bool;
}

let create ?(config = default_config) () =
  {
    config;
    pool = Suite.Pool.create ~jobs:(max 1 config.jobs) ();
    cache = Cache.create ~capacity:(max 1 config.cache_capacity);
    stopping = false;
  }

let shutdown t =
  t.stopping <- true;
  Suite.Pool.shutdown t.pool

let cache_counters t =
  let s = Cache.stats t.cache in
  {
    Protocol.hits = s.Cache.hits;
    misses = s.Cache.misses;
    evictions = s.Cache.evictions;
    insertions = s.Cache.insertions;
    entries = Cache.length t.cache;
    capacity = Cache.capacity t.cache;
  }

let cache_stats t = Protocol.Cache_stats (cache_counters t)

let alloc_stats_of (res : Allocator.result) =
  {
    Protocol.rounds = res.Allocator.rounds;
    full_builds = Stats.counter_total res.Allocator.stats Stats.Full_builds;
    liveness_runs = Stats.counter_total res.Allocator.stats Stats.Liveness_runs;
    spilled = res.Allocator.spilled_memory + res.Allocator.spilled_remat;
  }

(* One allocation work item: everything pass B needs, owned by the item
   (except the immutable snapshot). *)
type work = {
  w_key : string;
  w_hash : string;
  w_config : Protocol.config;
  w_cfg : Iloc.Cfg.t;
  w_base : Allocator.snapshot option;  (* present: try incremental first *)
}

let exn_to_err e =
  match e with
  | Allocator.Allocation_error msg -> Protocol.(Err { kind = Alloc_error; msg })
  | Remat.Spill_code.Pressure_too_high msg ->
      Protocol.(Err { kind = Alloc_error; msg })
  | e -> Protocol.(Err { kind = Server_error; msg = Printexc.to_string e })

(* Run one work item; never raises. *)
let run_work (w : work) :
    (entry * Protocol.source, Protocol.response) result =
  let mode = w.w_config.Protocol.mode in
  let machine = Protocol.machine_of_config w.w_config in
  let finish (res : Allocator.result) snap source =
    let text = Iloc.Printer.routine_to_string res.Allocator.cfg in
    ( {
        e_hash = w.w_hash;
        e_text = text;
        e_stats = alloc_stats_of res;
        e_snapshot = snap;
      },
      source )
  in
  match
    match w.w_base with
    | Some base ->
        let path, res, snap = Allocator.allocate_incremental base w.w_cfg in
        finish res (Some snap)
          (match path with
          | Allocator.Incremental -> Protocol.Incremental
          | Allocator.Cold -> Protocol.Cold)
    | None ->
        let res, snap = Allocator.allocate_snapshot ~mode ~machine w.w_cfg in
        finish res snap Protocol.Cold
  with
  | v -> Ok v
  | exception e -> Error (exn_to_err e)

(* Pass-A plan for one request. *)
type plan =
  | Respond of Protocol.response
  | P_stats
  | P_bye
  | P_probe of { key : string; hash : string }
  | P_hit of { key : string; entry : entry }
      (* cached at wave start; [entry] re-inserted if evicted mid-wave *)
  | P_work of { key : string; item : int }  (* index into the work array *)

let parse_routine text =
  match Iloc.Parser.routine text with
  | cfg -> Ok cfg
  | exception Iloc.Parser.Error { line; msg } ->
      Error (Printf.sprintf "line %d: %s" line msg)
  | exception e -> Error (Printexc.to_string e)

let handle_batch t (requests : (Protocol.request, string) result list) :
    Protocol.response list =
  (* Pass A: plan.  [pending] maps cache keys already scheduled in this
     wave to their work-item index, deduplicating identical requests. *)
  let work = ref [] and n_work = ref 0 in
  let pending = Hashtbl.create 16 in
  let schedule key hash config cfg base =
    match Hashtbl.find_opt pending key with
    | Some i -> P_work { key; item = i }
    | None ->
        let i = !n_work in
        Hashtbl.add pending key i;
        work :=
          { w_key = key; w_hash = hash; w_config = config; w_cfg = cfg;
            w_base = base }
          :: !work;
        incr n_work;
        P_work { key; item = i }
  in
  let plan_alloc config text ~base =
    match parse_routine text with
    | Error msg -> Respond Protocol.(Err { kind = Parse_error; msg })
    | Ok cfg -> (
        let hash = Iloc.Cfg.content_hash cfg in
        let key = Protocol.cache_key ~hash config in
        match Cache.peek t.cache key with
        | Some entry -> P_hit { key; entry }
        | None ->
            if Hashtbl.mem pending key then schedule key hash config cfg None
            else
              let snap =
                match base with
                | None -> None
                | Some base_hash -> (
                    let bkey = Protocol.cache_key ~hash:base_hash config in
                    match Cache.peek t.cache bkey with
                    | Some { e_snapshot = Some s; _ } -> Some s
                    | _ -> None)
              in
              schedule key hash config cfg snap)
  in
  let plans =
    List.map
      (fun req ->
        match req with
        | Error msg -> Respond Protocol.(Err { kind = Parse_error; msg })
        | Ok (Protocol.Alloc { config; text }) ->
            plan_alloc config text ~base:None
        | Ok (Protocol.Edit { config; base; text }) ->
            plan_alloc config text ~base:(Some base)
        | Ok (Protocol.Probe { config; hash }) ->
            P_probe { key = Protocol.cache_key ~hash config; hash }
        | Ok Protocol.Stats -> P_stats
        | Ok Protocol.Shutdown -> P_bye)
      requests
  in
  (* Pass B: allocate. *)
  let items = Array.of_list (List.rev !work) in
  let results =
    if Array.length items = 0 then [||]
    else
      Suite.Pool.await
        (Suite.Pool.submit t.pool run_work items)
  in
  (* Pass C: replay against the cache, in request order. *)
  let respond_entry (e : entry) source =
    Protocol.Allocated
      { hash = e.e_hash; source; stats = e.e_stats; text = e.e_text }
  in
  List.map
    (fun plan ->
      match plan with
      | Respond r -> r
      | P_stats -> cache_stats t
      | P_bye ->
          t.stopping <- true;
          Protocol.Bye
      | P_probe { key; hash } -> (
          match Cache.find t.cache key with
          | Some e -> respond_entry e Protocol.Hit
          | None -> Protocol.Absent { hash })
      | P_hit { key; entry } -> (
          match Cache.find t.cache key with
          | Some e -> respond_entry e Protocol.Hit
          | None ->
              (* Evicted by an insert earlier in this wave; restore the
                 planned entry — the response bytes are the same either
                 way. *)
              Cache.insert t.cache key entry;
              respond_entry entry Protocol.Hit)
      | P_work { key; item } -> (
          match Cache.find t.cache key with
          | Some e ->
              (* A same-key request earlier in the wave already inserted
                 its result: serve it as the hit it is. *)
              respond_entry e Protocol.Hit
          | None -> (
              match results.(item) with
              | Ok (entry, source) ->
                  Cache.insert t.cache key entry;
                  respond_entry entry source
              | Error err -> err)))
    plans

(* ------------------------------------------------------------------ *)
(* The wire loop                                                       *)
(* ------------------------------------------------------------------ *)

let send out_fd resp = Frame.write_frame out_fd (Protocol.encode_response resp)

let protocol_err msg = Protocol.(Err { kind = Protocol_error; msg })

(* Serve one connection.  Returns when the peer closes, on a framing
   violation (after answering with a structured error), or after a
   Shutdown request ([t.stopping] tells the caller to stop accepting). *)
let serve_fds t ~in_fd ~out_fd =
  let r = Frame.reader ~max_frame:t.config.max_frame in_fd in
  let rec loop () =
    if t.stopping then ()
    else
      match Frame.next r with
      | Frame.End_of_input -> ()
      | Frame.Corrupt msg -> ( try send out_fd (protocol_err msg) with _ -> ())
      | Frame.Frame first ->
          (* Drain whatever complete frames are already pending into the
             same wave — batching is what lets the pool fan out. *)
          let rec drain acc n stop =
            if n >= t.config.batch_limit then (List.rev acc, stop)
            else
              match Frame.poll r with
              | None -> (List.rev acc, stop)
              | Some (Frame.Frame p) -> drain (p :: acc) (n + 1) stop
              | Some Frame.End_of_input -> (List.rev acc, `Eof)
              | Some (Frame.Corrupt msg) -> (List.rev acc, `Corrupt msg)
          in
          let payloads, stop = drain [ first ] 1 `No in
          let responses =
            handle_batch t (List.map Protocol.parse_request payloads)
          in
          let ok =
            try
              List.iter (send out_fd) responses;
              true
            with _ -> false (* peer went away mid-reply *)
          in
          if not ok then ()
          else (
            match stop with
            | `No -> loop ()
            | `Eof -> ()
            | `Corrupt msg -> (
                try send out_fd (protocol_err msg) with _ -> ()))
  in
  loop ()

let serve_socket t path =
  (if Sys.file_exists path then try Unix.unlink path with _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with _ -> ());
      try Unix.unlink path with _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      (* One connection at a time: concurrency lives in the pool, and a
         single serialized frontend is what keeps responses
         deterministic. *)
      let rec accept_loop () =
        if t.stopping then ()
        else begin
          let conn, _ = Unix.accept sock in
          Fun.protect
            ~finally:(fun () -> try Unix.close conn with _ -> ())
            (fun () -> serve_fds t ~in_fd:conn ~out_fd:conn);
          accept_loop ()
        end
      in
      accept_loop ())
