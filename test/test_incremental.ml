(* The incremental interference graph: in-place coalescing must leave
   the same graph a from-scratch rebuild would produce, and the allocator
   must perform at most one full build per spill round. *)

module Cfg = Iloc.Cfg
module Reg = Iloc.Reg
module Instr = Iloc.Instr

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* Run a routine up to the coalescing fixpoint under a fresh context:
   DCE (dead definitions would otherwise carry clobber edges that no
   rebuild of the rewritten routine can reproduce), critical-edge split,
   renumber, then the allocator's build and incremental coalescing
   loop.  Returns the context and the round's coalesced graph. *)
let coalesced_context mode cfg0 =
  ignore (Opt.Dce.routine cfg0);
  let cfg = Cfg.split_critical_edges cfg0 in
  let dom = Dataflow.Dominance.compute cfg in
  let loops = Dataflow.Loops.compute cfg dom in
  let rn = Reference.Renumber.run mode cfg in
  let ctx =
    Remat.Context.create ~mode ~machine:Remat.Machine.standard ~loops
      ~order:(Dataflow.Dominance.postorder dom) ~tags:rn.Reference.Renumber.tags
      ~split_pairs:rn.Reference.Renumber.split_pairs
      ~stats:(Remat.Stats.create ())
      (Iloc.Flat.of_routine rn.Reference.Renumber.cfg)
  in
  Remat.Context.set_round ctx 1;
  let g = Remat.Allocator.build ctx in
  ignore (Remat.Allocator.coalesce ctx g);
  (ctx, g)

(* Compare the incrementally maintained graph against a from-scratch
   rebuild of the coalesced routine.  Chaitin's neighbor-set union is a
   safe over-approximation of the rebuild, exact except around nodes the
   coalescer touched: [build] omits the dst–src edge at a copy
   definition, so a merge that enlarges a copy's source range lets the
   rebuild drop an edge the union keeps; and collapsing a φ copy-cycle
   can leave a merged range with fewer occurrences than its
   constituents, shedding rebuild edges that the union retains.  Both
   kinds of slack are incident to a node that absorbed another in a
   merge.  The invariant checked:

   - identical node sets (alive nodes <-> rebuild nodes);
   - no missed interference: every rebuild edge is present in-place
     (the correctness-critical direction — a missing edge could assign
     one register to simultaneously-live values);
   - every extra in-place edge either joins the two ranges of a copy
     still in the routine or touches a node that absorbed another, so
     untouched regions of the graph match the rebuild exactly;
   - the maintained [n_edges] counter and deduplicated adjacency agree
     with the matrix (sum of alive degrees = 2 * n_edges). *)
let matches_rebuild ((ctx : Remat.Context.t), g) =
  let coalesced = Iloc.Flat.to_routine (Remat.Context.flat ctx) in
  let live = Reference.Liveness.compute coalesced in
  let fresh = Reference.Interference.build coalesced live in
  let n = Remat.Interference.n_nodes g in
  let alive =
    List.filter (Remat.Interference.alive g) (List.init n Fun.id)
  in
  let fresh_index i =
    Remat.Interference.index_opt fresh (Remat.Interference.reg g i)
  in
  let copy_pairs = Hashtbl.create 16 in
  Cfg.iter_instrs
    (fun _ ins ->
      if Instr.is_copy ins then
        match (ins.Instr.dst, ins.Instr.srcs) with
        | Some d, [| s |] -> (
            match
              ( Remat.Interference.index_opt g d,
                Remat.Interference.index_opt g s )
            with
            | Some di, Some si ->
                let di = Remat.Interference.find g di
                and si = Remat.Interference.find g si in
                Hashtbl.replace copy_pairs (min di si, max di si) ()
            | _ -> ())
        | _ -> ())
    coalesced;
  let absorbed = Array.make n false in
  List.iter
    (fun i ->
      let r = Remat.Interference.find g i in
      if r <> i then absorbed.(r) <- true)
    (List.init n Fun.id);
  let degree_sum =
    List.fold_left (fun a i -> a + Remat.Interference.degree g i) 0 alive
  in
  let dedup_adj i =
    let nbs = Remat.Interference.neighbors g i in
    List.length (List.sort_uniq Int.compare nbs) = List.length nbs
    && List.length nbs = Remat.Interference.degree g i
  in
  Remat.Interference.n_alive g = Remat.Interference.n_nodes fresh
  && degree_sum = 2 * Remat.Interference.n_edges g
  && List.for_all dedup_adj alive
  && List.for_all (fun i -> fresh_index i <> None) alive
  && List.for_all
       (fun i ->
         List.for_all
           (fun j ->
             i >= j
             ||
             match (fresh_index i, fresh_index j) with
             | Some fi, Some fj -> (
                 match
                   ( Remat.Interference.interfere g i j,
                     Remat.Interference.interfere fresh fi fj )
                 with
                 | inc, rebuilt when inc = rebuilt -> true
                 | false, true -> false (* missed interference: unsound *)
                 | _, _ ->
                     Hashtbl.mem copy_pairs (i, j)
                     || absorbed.(i) || absorbed.(j))
             | _ -> false)
           alive)
       alive

let isomorphism_prop mode name =
  QCheck.Test.make ~count:150 ~name Testutil.Gen_prog.arbitrary_cfg
    (fun cfg0 -> matches_rebuild (coalesced_context mode cfg0))

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      isomorphism_prop Remat.Mode.Chaitin_remat
        "post-coalesce graph = rebuild (chaitin)";
      isomorphism_prop Remat.Mode.Briggs_remat
        "post-coalesce graph = rebuild (briggs)";
    ]

let rewrite_tests =
  [
    tc "rewrite_physical deletes identity copies" (fun () ->
        let cfg =
          Iloc.Parser.routine
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 1\n\
            \  r2 <- copy r1\n\
            \  print r2\n\
            \  ret\n"
        in
        let live = Reference.Liveness.compute cfg in
        let g = Reference.Interference.build cfg live in
        (* r1 and r2 do not interfere (copy source dies at the copy), so
           both may receive color 0 — the copy becomes r0 <- copy r0. *)
        let cfg =
          Iloc.Flat.to_routine
            (Remat.Coalesce.rename g (fun _ -> 0) (Iloc.Flat.of_routine cfg))
        in
        let copies = ref 0 and instrs = ref 0 in
        Cfg.iter_instrs
          (fun _ i ->
            incr instrs;
            if Instr.is_copy i then incr copies;
            List.iter
              (fun r -> check Alcotest.int "physical" 0 (Reg.id r))
              (Instr.defs i @ Instr.uses i))
          cfg;
        check Alcotest.int "identity copy deleted" 0 !copies;
        check Alcotest.int "other instructions kept" 3 !instrs);
    tc "rewrite_physical keeps distinct-color copies" (fun () ->
        let cfg =
          Iloc.Parser.routine
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 1\n\
            \  r2 <- copy r1\n\
            \  print r1\n\
            \  print r2\n\
            \  ret\n"
        in
        let live = Reference.Liveness.compute cfg in
        let g = Reference.Interference.build cfg live in
        let cfg =
          Iloc.Flat.to_routine
            (Remat.Coalesce.rename g Fun.id (Iloc.Flat.of_routine cfg))
        in
        let copies = ref 0 in
        Cfg.iter_instrs (fun _ i -> if Instr.is_copy i then incr copies) cfg;
        check Alcotest.int "copy kept" 1 !copies);
  ]

(* The acceptance bound of the refactor: on every suite kernel, in every
   mode, the allocator performs at most one full graph build per spill
   round, however many coalescing iterations a round takes. *)
let kernel_tests =
  List.map
    (fun mode ->
      tc
        (Printf.sprintf "one build per round on all kernels (%s)"
           (Remat.Mode.to_string mode))
        (fun () ->
          List.iter
            (fun k ->
              let cfg = Suite.Kernels.cfg_of ~optimize:true k in
              let res =
                Remat.Allocator.allocate ~mode
                  ~machine:Remat.Machine.standard cfg
              in
              let stats = res.Remat.Allocator.stats in
              let builds =
                Testutil.max_per_round stats Remat.Stats.Full_builds
              in
              if builds > 1 then
                Alcotest.failf "%s: %d full builds in one round"
                  k.Suite.Kernels.name builds;
              let sweeps =
                Remat.Stats.counter_total stats Remat.Stats.Coalesce_sweeps
              in
              if sweeps < res.Remat.Allocator.rounds then
                Alcotest.failf "%s: %d sweeps over %d rounds"
                  k.Suite.Kernels.name sweeps res.Remat.Allocator.rounds;
              check Alcotest.int
                (k.Suite.Kernels.name ^ " merges = coalesced copies")
                (Remat.Stats.counter_total stats Remat.Stats.Coalesced_copies)
                (Remat.Stats.counter_total stats Remat.Stats.Node_merges))
            Suite.Kernels.all))
    [ Remat.Mode.Chaitin_remat; Remat.Mode.Briggs_remat ]

(* One liveness run and one full build per spill round, exactly, on a
   cold allocation: the round's build is the only reader of liveness.
   Coalescing renames the arena and drops the rows; spill costs decide
   which ranges cross a block from their own sweep, so nothing
   recomputes them before the next round.  Over the 49 kernels, plain
   and optimized, on the standard machine, and 50 high-pressure fuzz
   routines on an 8+8 machine, which spill over several rounds. *)
let liveness_tests =
  List.map
    (fun mode ->
      tc
        (Printf.sprintf "one liveness run per round, cold (%s)"
           (Remat.Mode.to_string mode))
        (fun () ->
          let spilled = ref 0 in
          let run what ~machine cfg =
            match Remat.Allocator.allocate ~mode ~machine cfg with
            | exception Remat.Spill_code.Pressure_too_high _ -> ()
            | res ->
                let stats = res.Remat.Allocator.stats in
                let rounds = res.Remat.Allocator.rounds in
                if rounds > 1 then incr spilled;
                check Alcotest.int (what ^ ": liveness runs") rounds
                  (Remat.Stats.counter_total stats Remat.Stats.Liveness_runs);
                check Alcotest.int (what ^ ": full builds") rounds
                  (Remat.Stats.counter_total stats Remat.Stats.Full_builds)
          in
          List.iter
            (fun k ->
              List.iter
                (fun optimize ->
                  run
                    (Printf.sprintf "%s%s" k.Suite.Kernels.name
                       (if optimize then " -O" else ""))
                    ~machine:Remat.Machine.standard
                    (Suite.Kernels.cfg_of ~optimize k))
                [ false; true ])
            Suite.Kernels.all;
          let machine = Remat.Machine.make ~name:"scale" ~k_int:8 ~k_float:8 in
          for seed = 1 to 50 do
            run (Printf.sprintf "fuzz %d" seed) ~machine
              (Fuzz.Gen.generate ~config:Fuzz.Gen.high_pressure seed)
          done;
          check Alcotest.bool "some allocations spill" true (!spilled > 0)))
    [ Remat.Mode.Chaitin_remat; Remat.Mode.Briggs_remat ]

(* One control-flow analysis per allocation on the incremental paths
   too: an edit runs the whole front half, in round 0, whether the
   snapshot's liveness and graph are reused or not.  Every mode that
   takes a snapshot; a routine against its own snapshot always reuses
   it, an unrelated one always misses.  The other five modes take no
   snapshot, so their edits are cold allocations, pinned in
   test_allocator. *)
let cfa_tests =
  [
    tc "one cfa per allocation, incremental reuse and miss" (fun () ->
        let machine = Remat.Machine.make ~name:"8+8" ~k_int:8 ~k_float:8 in
        List.iter
          (fun mode ->
            for seed = 0 to 9 do
              let what path =
                Printf.sprintf "%s seed %d %s" (Remat.Mode.to_string mode) seed
                  path
              in
              let base = Fuzz.Gen.generate seed in
              match Remat.Allocator.allocate_snapshot ~mode ~machine base with
              | _, None -> Alcotest.failf "%s: no snapshot" (what "")
              | _, Some snap ->
                  List.iter
                    (fun (path, edit, expected) ->
                      let got, res, _ =
                        Remat.Allocator.allocate_incremental snap edit
                      in
                      check Alcotest.bool (what path ^ ": path") true
                        (got = expected);
                      check (Alcotest.list Alcotest.int)
                        (what path ^ ": cfa rows") [ 0 ]
                        (Testutil.cfa_rounds res.Remat.Allocator.stats))
                    [
                      ("reuse", base, Remat.Allocator.Incremental);
                      ("miss", Fuzz.Gen.generate (seed + 1000), Remat.Allocator.Cold);
                    ]
            done)
          Remat.Mode.
            [ No_remat; Chaitin_remat; Briggs_remat; Briggs_remat_phi_splits ]);
  ]

let () =
  Alcotest.run "incremental"
    [
      ("graph-isomorphism", property_tests);
      ("rewrite-physical", rewrite_tests);
      ("build-counters", kernel_tests @ liveness_tests);
      ("front-half", cfa_tests);
    ]
