(* Tests for lib/serve: framing robustness (nothing a peer sends raises),
   the protocol codec, the LRU memo table's exact bounds and counters,
   wave handling (cold / hit / same-wave dedup / probe / structured
   errors), incremental edits (phase stats prove no full rebuild, output
   bytes prove equivalence with cold allocation), load-generator
   determinism across job counts, and a live client/server conversation
   over pipes. *)

module Frame = Serve.Frame
module Protocol = Serve.Protocol
module Cache = Serve.Cache
module Server = Serve.Server
module Client = Serve.Client
module Loadgen = Serve.Loadgen
module Allocator = Remat.Allocator

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* A pipe carrying [bytes]; returns the read end (write end closed, so
   the reader sees EOF after the payload).  Keep payloads comfortably
   under the kernel pipe buffer — there is no reader draining yet. *)
let pipe_with bytes =
  assert (String.length bytes < 60_000);
  let r, w = Unix.pipe () in
  Frame.write_all w bytes;
  Unix.close w;
  r

let with_fd fd f = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

(* --- framing --- *)

let frame_tests =
  [
    tc "frames round trip in order, then clean EOF" (fun () ->
        let payloads = [ ""; "a"; String.make 40_000 'x'; "last" ] in
        let b = Buffer.create 16 in
        List.iter (Frame.encode b) payloads;
        with_fd (pipe_with (Buffer.contents b)) (fun fd ->
            let r = Frame.reader fd in
            List.iter
              (fun p ->
                match Frame.next r with
                | Frame.Frame got -> check Alcotest.string "payload" p got
                | _ -> Alcotest.fail "expected a frame")
              payloads;
            check Alcotest.bool "eof" true (Frame.next r = Frame.End_of_input);
            check Alcotest.bool "eof again" true
              (Frame.next r = Frame.End_of_input)));
    tc "EOF inside a payload is Corrupt" (fun () ->
        let whole = Frame.to_string "hello world" in
        let cut = String.sub whole 0 (String.length whole - 3) in
        with_fd (pipe_with cut) (fun fd ->
            let r = Frame.reader fd in
            match Frame.next r with
            | Frame.Corrupt _ -> ()
            | _ -> Alcotest.fail "expected Corrupt"));
    tc "EOF inside the length prefix is Corrupt" (fun () ->
        with_fd (pipe_with "\x00\x00") (fun fd ->
            let r = Frame.reader fd in
            match Frame.next r with
            | Frame.Corrupt _ -> ()
            | _ -> Alcotest.fail "expected Corrupt"));
    tc "oversized length prefix is Corrupt, and the reader stays corrupt"
      (fun () ->
        let b = Buffer.create 16 in
        Buffer.add_string b "\x00\x10\x00\x00";
        (* 1 MiB claim *)
        Buffer.add_string b "some bytes";
        with_fd (pipe_with (Buffer.contents b)) (fun fd ->
            let r = Frame.reader ~max_frame:1024 fd in
            (match Frame.next r with
            | Frame.Corrupt _ -> ()
            | _ -> Alcotest.fail "expected Corrupt");
            match Frame.next r with
            | Frame.Corrupt _ -> ()
            | _ -> Alcotest.fail "poisoned reader must stay Corrupt"));
    tc "garbage prefix decoding to a giant length is Corrupt" (fun () ->
        with_fd (pipe_with "\xff\xff\xff\xff trailing garbage") (fun fd ->
            let r = Frame.reader fd in
            match Frame.next r with
            | Frame.Corrupt _ -> ()
            | _ -> Alcotest.fail "expected Corrupt"));
    tc "poll returns None on an empty pipe, then sees a written frame"
      (fun () ->
        let rd, wr = Unix.pipe () in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close rd with _ -> ());
            try Unix.close wr with _ -> ())
          (fun () ->
            let r = Frame.reader rd in
            check Alcotest.bool "empty" true (Frame.poll r = None);
            Frame.write_frame wr "ping";
            (match Frame.poll r with
            | Some (Frame.Frame "ping") -> ()
            | _ -> Alcotest.fail "expected the frame");
            check Alcotest.bool "drained" true (Frame.poll r = None)));
    tc "decode_all mirrors the reader" (fun () ->
        let b = Buffer.create 16 in
        List.iter (Frame.encode b) [ "x"; "yz" ];
        (match Frame.decode_all (Buffer.contents b) with
        | Ok [ "x"; "yz" ] -> ()
        | _ -> Alcotest.fail "expected both payloads");
        (match Frame.decode_all "" with
        | Ok [] -> ()
        | _ -> Alcotest.fail "empty input has no frames");
        (match Frame.decode_all (String.sub (Frame.to_string "abc") 0 5) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "truncation must not decode");
        match Frame.decode_all ~max_frame:4 (Frame.to_string "too long") with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "oversized must not decode");
  ]

(* --- protocol --- *)

let req_roundtrip r =
  match Protocol.parse_request (Protocol.encode_request r) with
  | Ok r' -> r' = r
  | Error m -> Alcotest.failf "request did not round trip: %s" m

let resp_roundtrip r =
  match Protocol.parse_response (Protocol.encode_response r) with
  | Ok r' -> r' = r
  | Error m -> Alcotest.failf "response did not round trip: %s" m

let protocol_tests =
  let cfg = Protocol.standard_config in
  let stats =
    { Protocol.rounds = 3; full_builds = 2; liveness_runs = 2; spilled = 1 }
  in
  [
    tc "requests round trip" (fun () ->
        List.iter
          (fun r -> check Alcotest.bool "round trip" true (req_roundtrip r))
          [
            Protocol.Alloc { config = cfg; text = "routine f\nentry:\n  ret\n" };
            Protocol.Probe { config = cfg; hash = "abcd" };
            Protocol.Edit
              {
                config = { cfg with k_int = 4; k_float = 3 };
                base = "ffff";
                text = "routine g\nentry:\n  ret\n";
              };
            Protocol.Stats;
            Protocol.Shutdown;
          ]);
    tc "responses round trip" (fun () ->
        List.iter
          (fun r -> check Alcotest.bool "round trip" true (resp_roundtrip r))
          [
            Protocol.Allocated
              {
                hash = "beef";
                source = Protocol.Incremental;
                stats;
                text = "routine f\nentry:\n  ret\n";
              };
            Protocol.Absent { hash = "beef" };
            Protocol.Cache_stats
              {
                hits = 1;
                misses = 2;
                evictions = 3;
                insertions = 4;
                entries = 5;
                capacity = 6;
              };
            Protocol.Err
              { kind = Protocol.Alloc_error; msg = "k too small\nreally" };
            Protocol.Bye;
          ]);
    tc "malformed payloads are Errors, never exceptions" (fun () ->
        List.iter
          (fun s ->
            match Protocol.parse_request s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted garbage %S" s)
          [
            "";
            "garbage";
            "ralloc/0 alloc\n";
            "ralloc/1 frobnicate\n";
            "ralloc/1 alloc\nmode briggs\nk-int 16\nk-float 16\n";
            (* no body *)
            "ralloc/1 alloc\nmode nonsense\nk-int 16\nk-float 16\n\nret";
            "ralloc/1 alloc\nmode briggs\nk-int 1\nk-float 16\n\nret";
            (* k too small *)
            "ralloc/1 alloc\nmode briggs\nk-int x\nk-float 16\n\nret";
            "ralloc/1 probe\nmode briggs\nk-int 16\nk-float 16\n";
            (* no hash *)
          ]);
    tc "cache key separates hash, mode and register counts" (fun () ->
        let base = Protocol.cache_key ~hash:"h" cfg in
        check Alcotest.bool "mode" true
          (base
          <> Protocol.cache_key ~hash:"h"
               { cfg with mode = Remat.Mode.Chaitin_remat });
        check Alcotest.bool "k" true
          (base <> Protocol.cache_key ~hash:"h" { cfg with k_int = 8 });
        check Alcotest.bool "hash" true
          (base <> Protocol.cache_key ~hash:"g" cfg));
  ]

(* --- LRU cache --- *)

let cache_tests =
  [
    tc "capacity bound is exact and eviction order is LRU" (fun () ->
        let c = Cache.create ~capacity:3 in
        List.iter (fun k -> Cache.insert c k k) [ "a"; "b"; "c"; "d"; "e" ];
        check Alcotest.int "length" 3 (Cache.length c);
        check
          (Alcotest.list Alcotest.string)
          "most recent first" [ "e"; "d"; "c" ] (Cache.keys_mru c);
        let s = Cache.stats c in
        check Alcotest.int "insertions" 5 s.Cache.insertions;
        check Alcotest.int "evictions" 2 s.Cache.evictions;
        check Alcotest.bool "a gone" true (Cache.find c "a" = None);
        check Alcotest.bool "b gone" true (Cache.find c "b" = None));
    tc "find renews recency; peek and mem do not" (fun () ->
        let c = Cache.create ~capacity:3 in
        List.iter (fun k -> Cache.insert c k k) [ "a"; "b"; "c" ];
        ignore (Cache.find c "a");
        ignore (Cache.peek c "b");
        check Alcotest.bool "mem" true (Cache.mem c "b");
        Cache.insert c "d" "d";
        (* b was least recently used despite the peek *)
        check Alcotest.bool "b evicted" true (Cache.peek c "b" = None);
        check Alcotest.bool "a kept" true (Cache.peek c "a" <> None));
    tc "hit and miss counters are exact; peek counts nothing" (fun () ->
        let c = Cache.create ~capacity:2 in
        Cache.insert c "a" 1;
        ignore (Cache.find c "a");
        ignore (Cache.find c "a");
        ignore (Cache.find c "nope");
        ignore (Cache.peek c "a");
        ignore (Cache.peek c "nope");
        let s = Cache.stats c in
        check Alcotest.int "hits" 2 s.Cache.hits;
        check Alcotest.int "misses" 1 s.Cache.misses;
        check Alcotest.int "insertions" 1 s.Cache.insertions;
        check Alcotest.int "evictions" 0 s.Cache.evictions);
    tc "overwrite neither grows nor evicts" (fun () ->
        let c = Cache.create ~capacity:2 in
        Cache.insert c "a" 1;
        Cache.insert c "b" 2;
        Cache.insert c "a" 3;
        check Alcotest.int "length" 2 (Cache.length c);
        check Alcotest.int "evictions" 0 (Cache.stats c).Cache.evictions;
        check Alcotest.bool "new value" true (Cache.peek c "a" = Some 3);
        check
          (Alcotest.list Alcotest.string)
          "overwrite renews" [ "a"; "b" ] (Cache.keys_mru c));
    tc "capacity below one is rejected" (fun () ->
        match Cache.create ~capacity:0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* --- waves --- *)

let routine_of_seed seed =
  Iloc.Printer.routine_to_string (Fuzz.Gen.generate seed)

let alloc_req ?(config = Protocol.standard_config) text =
  Ok (Protocol.Alloc { config; text })

let with_server ?config f =
  let s = Server.create ?config () in
  Fun.protect ~finally:(fun () -> Server.shutdown s) (fun () -> f s)

(* Exactly the cold allocation the server performs for
   [Protocol.standard_config]. *)
let allocate_direct_res text =
  Allocator.allocate
    ~machine:(Protocol.machine_of_config Protocol.standard_config)
    (Iloc.Parser.routine text)

let allocate_direct text =
  Iloc.Printer.routine_to_string (allocate_direct_res text).Allocator.cfg

type allocated = {
  hash : string;
  source : Protocol.source;
  stats : Protocol.alloc_stats;
  text : string;
}

let expect_allocated = function
  | Protocol.Allocated { hash; source; stats; text } ->
      { hash; source; stats; text }
  | r ->
      Alcotest.failf "expected Allocated, got %s" (Protocol.encode_response r)

let wave_tests =
  [
    tc "cold then hit, bytes identical, matching direct allocation" (fun () ->
        with_server (fun s ->
            let text = routine_of_seed 7 in
            let r1 =
              expect_allocated
                (List.hd (Server.handle_batch s [ alloc_req text ]))
            in
            check Alcotest.bool "cold" true (r1.source = Protocol.Cold);
            check Alcotest.string "matches direct allocation"
              (allocate_direct text) r1.text;
            let r2 =
              expect_allocated
                (List.hd (Server.handle_batch s [ alloc_req text ]))
            in
            check Alcotest.bool "hit" true (r2.source = Protocol.Hit);
            check Alcotest.string "hit bytes = cold bytes" r1.text r2.text;
            check Alcotest.string "same hash" r1.hash r2.hash));
    tc "identical requests in one wave share the work" (fun () ->
        with_server (fun s ->
            let text = routine_of_seed 8 in
            match Server.handle_batch s [ alloc_req text; alloc_req text ] with
            | [ a; b ] ->
                let a = expect_allocated a and b = expect_allocated b in
                check Alcotest.bool "first cold" true (a.source = Protocol.Cold);
                check Alcotest.bool "second hit" true (b.source = Protocol.Hit);
                check Alcotest.string "same bytes" a.text b.text;
                check Alcotest.int "one insertion" 1
                  (Server.cache_counters s).Protocol.insertions
            | _ -> Alcotest.fail "expected two responses"));
    tc "probe misses then hits, never allocating on a miss" (fun () ->
        with_server (fun s ->
            let text = routine_of_seed 9 in
            let hash = Iloc.Cfg.content_hash (Iloc.Parser.routine text) in
            let probe =
              Ok (Protocol.Probe { config = Protocol.standard_config; hash })
            in
            (match Server.handle_batch s [ probe ] with
            | [ Protocol.Absent a ] -> check Alcotest.string "hash" hash a.hash
            | _ -> Alcotest.fail "expected Absent");
            ignore (Server.handle_batch s [ alloc_req text ]);
            match Server.handle_batch s [ probe ] with
            | [ Protocol.Allocated a ] ->
                check Alcotest.bool "hit" true (a.source = Protocol.Hit)
            | _ -> Alcotest.fail "expected Allocated"));
    tc "parse failures become structured errors in position" (fun () ->
        with_server (fun s ->
            let good = routine_of_seed 10 in
            match
              Server.handle_batch s
                [
                  alloc_req "routine broken\nentry:\n  r1 <- frob r2\n";
                  Error "bad frame";
                  alloc_req good;
                ]
            with
            | [ Protocol.Err e1; Protocol.Err e2; Protocol.Allocated _ ] ->
                check Alcotest.bool "parse kind" true
                  (e1.kind = Protocol.Parse_error);
                check Alcotest.bool "frame kind" true
                  (e2.kind = Protocol.Parse_error)
            | _ -> Alcotest.fail "expected Err, Err, Allocated"));
    tc "impossible register counts come back as alloc errors" (fun () ->
        with_server (fun s ->
            let config =
              { Protocol.standard_config with k_int = 2; k_float = 2 }
            in
            let text =
              Iloc.Printer.routine_to_string
                (Fuzz.Gen.generate ~config:Fuzz.Gen.high_pressure 1)
            in
            match Server.handle_batch s [ alloc_req ~config text ] with
            | [ Protocol.Err e ] ->
                check Alcotest.bool "alloc kind" true
                  (e.kind = Protocol.Alloc_error)
            | [ Protocol.Allocated _ ] ->
                (* two registers per class might still suffice — then the
                   wave simply succeeded; nothing to assert *)
                ()
            | _ -> Alcotest.fail "expected one response"));
    tc "stats and shutdown answer in request order" (fun () ->
        with_server (fun s ->
            ignore (Server.handle_batch s [ alloc_req (routine_of_seed 11) ]);
            match
              Server.handle_batch s [ Ok Protocol.Stats; Ok Protocol.Shutdown ]
            with
            | [ Protocol.Cache_stats cs; Protocol.Bye ] ->
                check Alcotest.int "entries" 1 cs.Protocol.entries;
                check Alcotest.int "insertions" 1 cs.Protocol.insertions
            | _ -> Alcotest.fail "expected Cache_stats, Bye"));
  ]

(* --- incremental edits --- *)

let incremental_tests =
  [
    tc "edits reuse the snapshot: no full rebuild, cold-identical bytes"
      (fun () ->
        with_server (fun s ->
            let incremental = ref 0 in
            for seed = 0 to 14 do
              let base_cfg = Fuzz.Gen.generate seed in
              let base_hash = Iloc.Cfg.content_hash base_cfg in
              ignore
                (Server.handle_batch s
                   [
                     alloc_req (Iloc.Printer.routine_to_string base_cfg);
                   ]);
              let edited = Fuzz.Gen.mutate ~seed:(1000 + seed) base_cfg in
              let edited_text = Iloc.Printer.routine_to_string edited in
              let resp =
                expect_allocated
                  (List.hd
                     (Server.handle_batch s
                        [
                          Ok
                            (Protocol.Edit
                               {
                                 config = Protocol.standard_config;
                                 base = base_hash;
                                 text = edited_text;
                               });
                        ]))
              in
              let cold_res = allocate_direct_res edited_text in
              let cold =
                Iloc.Printer.routine_to_string cold_res.Allocator.cfg
              in
              check Alcotest.string
                (Printf.sprintf "seed %d: edit output = cold output" seed)
                cold resp.text;
              match resp.source with
              | Protocol.Incremental ->
                  incr incremental;
                  (* The incremental signature: round 1 reused the primed
                     liveness and graph, so only the spill rounds (if
                     any) ran liveness and rebuilt from scratch, once
                     each — one of each fewer than the same allocation
                     run cold. *)
                  check Alcotest.int
                    (Printf.sprintf "seed %d: rounds agree with cold" seed)
                    cold_res.Allocator.rounds resp.stats.Protocol.rounds;
                  check Alcotest.int
                    (Printf.sprintf "seed %d: full builds" seed)
                    (resp.stats.Protocol.rounds - 1)
                    resp.stats.Protocol.full_builds;
                  check Alcotest.int
                    (Printf.sprintf "seed %d: liveness runs" seed)
                    (resp.stats.Protocol.rounds - 1)
                    resp.stats.Protocol.liveness_runs
              | Protocol.Cold -> () (* structural edit: legitimate fallback *)
              | Protocol.Hit ->
                  (* The mutator admitted no edit and returned a plain
                     copy: its content hash equals the cached base, and a
                     hit is exactly right. *)
                  check Alcotest.string
                    (Printf.sprintf "seed %d: identity edit" seed)
                    (Iloc.Printer.routine_to_string base_cfg)
                    edited_text
            done;
            check Alcotest.bool
              (Printf.sprintf "some edits took the incremental path (%d/15)"
                 !incremental)
              true
              (!incremental >= 5)));
    tc "editing against an unknown base falls back cold" (fun () ->
        with_server (fun s ->
            let text = routine_of_seed 21 in
            let resp =
              expect_allocated
                (List.hd
                   (Server.handle_batch s
                      [
                        Ok
                          (Protocol.Edit
                             {
                               config = Protocol.standard_config;
                               base = "not a known hash";
                               text;
                             });
                      ]))
            in
            check Alcotest.bool "cold" true (resp.source = Protocol.Cold)));
  ]

(* --- determinism across job counts --- *)

let determinism_tests =
  [
    tc "loadgen digests are identical for -j1 and -j4" (fun () ->
        let cfg =
          {
            Loadgen.default with
            requests = 80;
            distinct = 8;
            wave = 16;
            seed = 5;
          }
        in
        let a = Loadgen.run { cfg with jobs = 1 } in
        let b = Loadgen.run { cfg with jobs = 4 } in
        check Alcotest.string "digest" a.Loadgen.s_output_digest
          b.Loadgen.s_output_digest;
        check Alcotest.int "errors" 0 a.Loadgen.s_errors;
        check Alcotest.int "rebuilds" 0 a.Loadgen.s_incremental_rebuilds;
        check Alcotest.int "hits agree" a.Loadgen.s_hits b.Loadgen.s_hits;
        check Alcotest.bool "cache does something" true
          (a.Loadgen.s_hit_rate > 0.));
    (* The serve contract BENCH_serve.json records: the response bytes
       (every source label, stats line and allocated body) of the
       1000-request stream, and the counts that say which path each
       request took.  A change that moves work between the cold,
       incremental and hit paths must leave every figure here as it
       is. *)
    tc "BENCH_serve stream: digest and response mix are pinned" (fun () ->
        let s =
          Loadgen.run
            {
              Loadgen.default with
              requests = 1000;
              distinct = 32;
              edit_rate = 0.3;
              seed = 42;
              wave = 32;
            }
        in
        check Alcotest.string "output digest"
          "af1f422a1d833bbef456f7b3594bbb45" s.Loadgen.s_output_digest;
        check Alcotest.int "cold" 91 s.Loadgen.s_cold;
        check Alcotest.int "hit" 669 s.Loadgen.s_hit_responses;
        check Alcotest.int "incremental" 240 s.Loadgen.s_incremental;
        check Alcotest.int "errors" 0 s.Loadgen.s_errors;
        check Alcotest.int "edits" 341 s.Loadgen.s_edits;
        check Alcotest.int "fallbacks" 59 s.Loadgen.s_edit_fallbacks;
        check Alcotest.int "incremental rebuilds" 0
          s.Loadgen.s_incremental_rebuilds);
  ]

(* --- a live conversation over pipes --- *)

(* Client and server each own one direction of a pipe pair; the server
   loop runs in its own domain, exactly as `ralloc serve` runs it over
   stdio. *)
let with_connection ?config f =
  let c2s_r, c2s_w = Unix.pipe () in
  let s2c_r, s2c_w = Unix.pipe () in
  let server = Server.create ?config () in
  let d =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close c2s_r with _ -> ());
            try Unix.close s2c_w with _ -> ())
          (fun () -> Server.serve_fds server ~in_fd:c2s_r ~out_fd:s2c_w))
  in
  let client = Client.of_fds ~in_fd:s2c_r ~out_fd:c2s_w in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close c2s_w with _ -> ());
      Domain.join d;
      (try Unix.close s2c_r with _ -> ());
      Server.shutdown server)
    (fun () -> f client c2s_w)

let expect_ok = function
  | Ok r -> r
  | Error m -> Alcotest.failf "client error: %s" m

let live_tests =
  [
    tc "alloc, probe, stats, shutdown over a live connection" (fun () ->
        with_connection (fun client _raw ->
            let text = routine_of_seed 31 in
            let r =
              expect_ok
                (Client.request client
                   (Protocol.Alloc
                      { config = Protocol.standard_config; text }))
            in
            let a = expect_allocated r in
            check Alcotest.bool "cold" true (a.source = Protocol.Cold);
            (match
               expect_ok
                 (Client.request client
                    (Protocol.Probe
                       { config = Protocol.standard_config; hash = a.hash }))
             with
            | Protocol.Allocated h ->
                check Alcotest.bool "hit" true (h.source = Protocol.Hit);
                check Alcotest.string "bytes" a.text h.text
            | _ -> Alcotest.fail "expected a probe hit");
            (match expect_ok (Client.request client Protocol.Stats) with
            | Protocol.Cache_stats cs ->
                check Alcotest.int "entries" 1 cs.Protocol.entries
            | _ -> Alcotest.fail "expected Cache_stats");
            match expect_ok (Client.request client Protocol.Shutdown) with
            | Protocol.Bye -> ()
            | _ -> Alcotest.fail "expected Bye"));
    tc "a garbage frame draws a structured error, then the server closes"
      (fun () ->
        with_connection (fun client raw ->
            (* A length prefix claiming ~4 GiB: unrecoverable framing. *)
            Frame.write_all raw "\xff\xff\xff\xff";
            (match Client.receive client with
            | Ok (Protocol.Err e) ->
                check Alcotest.bool "protocol kind" true
                  (e.kind = Protocol.Protocol_error)
            | other ->
                Alcotest.failf "expected a protocol error, got %s"
                  (match other with
                  | Ok r -> Protocol.encode_response r
                  | Error m -> m));
            match Client.receive client with
            | Error _ -> () (* connection closed: the reader saw EOF *)
            | Ok r ->
                Alcotest.failf "expected EOF, got %s"
                  (Protocol.encode_response r)));
    tc "EOF mid-frame shuts the connection down cleanly" (fun () ->
        with_connection (fun _client raw ->
            (* Half a frame, then the finally-block closes the pipe: the
               server must answer with an error or just close — and the
               Domain.join in the harness proves it exits either way. *)
            let whole = Frame.to_string "ralloc/1 stats\n" in
            Frame.write_all raw (String.sub whole 0 (String.length whole - 4))));
    tc "pre-spilled alloc and edit draw Errs; the stream serves on"
      (fun () ->
        with_connection (fun client _raw ->
            let config = Protocol.standard_config in
            let request r = expect_ok (Client.request client r) in
            let base =
              expect_allocated
                (request (Protocol.Alloc { config; text = routine_of_seed 32 }))
            in
            let refused what = function
              | Protocol.Err e ->
                  check Alcotest.bool (what ^ ": alloc kind") true
                    (e.kind = Protocol.Alloc_error);
                  check Alcotest.bool (what ^ ": names the spill") true
                    (String.starts_with ~prefix:Testutil.pre_spilled_refusal
                       e.msg)
              | r ->
                  Alcotest.failf "%s: expected Err, got %s" what
                    (Protocol.encode_response r)
            in
            let text = Testutil.pre_spilled_text in
            refused "alloc" (request (Protocol.Alloc { config; text }));
            refused "edit"
              (request (Protocol.Edit { config; base = base.hash; text }));
            let next =
              expect_allocated
                (request (Protocol.Alloc { config; text = routine_of_seed 33 }))
            in
            check Alcotest.bool "next request allocated cold" true
              (next.source = Protocol.Cold)));
    tc "a well-framed garbage payload draws an Err; the connection survives"
      (fun () ->
        with_connection (fun client raw ->
            (* Correct framing, nonsense payload: a structured parse
               error, and the stream stays synchronized for the next
               request. *)
            Frame.write_frame raw "not a ralloc payload";
            (match expect_ok (Client.receive client) with
            | Protocol.Err e ->
                check Alcotest.bool "parse kind" true
                  (e.kind = Protocol.Parse_error)
            | _ -> Alcotest.fail "expected Err");
            match expect_ok (Client.request client Protocol.Stats) with
            | Protocol.Cache_stats _ -> ()
            | _ -> Alcotest.fail "expected Cache_stats"));
  ]

let () =
  Alcotest.run "serve"
    [
      ("frame", frame_tests);
      ("protocol", protocol_tests);
      ("cache", cache_tests);
      ("waves", wave_tests);
      ("incremental", incremental_tests);
      ("determinism", determinism_tests);
      ("live", live_tests);
    ]
