(* The coloring-core rewrite (worklist simplify, epoch-scratch select,
   worklist coalescing, early-exit Briggs tests) against
   the retained pre-optimization code in [Reference]: on random routines
   the two must produce byte-identical results — same simplify stack,
   same colors and spill set, same coalesced routine.  Plus directed
   tests of the worklist structures and the boundary cases (degree
   exactly k-1 / k, nodes merged away, degree collapsing to zero). *)

open Alcotest
module Cfg = Iloc.Cfg
module Reg = Iloc.Reg
module Gen = Fuzz.Gen
module Interference = Remat.Interference
module Worklist = Dataflow.Worklist

let machines =
  [
    Remat.Machine.make ~name:"tiny" ~k_int:6 ~k_float:4;
    Remat.Machine.make ~name:"scale" ~k_int:8 ~k_float:8;
  ]

(* A context over the renumbered routine, and that routine: the
   reference coalescer renames the structured form in place. *)
let fresh_ctx ~mode ~machine cfg =
  let cfg0 = Cfg.split_critical_edges cfg in
  let dom = Dataflow.Dominance.compute cfg0 in
  let loops = Dataflow.Loops.compute cfg0 dom in
  let rn = Reference.Renumber.run mode cfg0 in
  ( Remat.Context.create ~mode ~machine ~loops
      ~order:(Dataflow.Dominance.postorder dom)
      ~tags:rn.Reference.Renumber.tags
      ~split_pairs:rn.Reference.Renumber.split_pairs
      ~stats:(Remat.Stats.create ())
      (Iloc.Flat.of_routine rn.Reference.Renumber.cfg),
    rn.Reference.Renumber.cfg )

(* Select's partner lists, through the graph's register table and the
   split pairs coalescing's rewrite left: [Remat.Select.partners] reads
   the round's node form of the pairs as they stood before coalescing,
   through [find], and must build the same lists, in the same order. *)
let partners_of ctx g =
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
  partners

(* Count every node's significant neighbors from their degrees and the
   class's [k], and compare with the count read through the graph's own
   [significant]: its thresholds must follow the degrees through builds
   and merges, or Briggs' test would count the wrong neighbors. *)
let check_sig_counts what ~k g =
  for i = 0 to Interference.n_nodes g - 1 do
    if Interference.alive g i then begin
      let expect =
        Interference.fold_neighbors
          (fun nb acc ->
            if
              Interference.degree g nb >= k (Reg.cls (Interference.reg g nb))
            then acc + 1
            else acc)
          g i 0
      in
      if expect <> Testutil.sig_neighbors g i then
        QCheck.Test.fail_reportf "%s: node %d: sig_neighbors %d, expected %d"
          what i
          (Testutil.sig_neighbors g i)
          expect
    end
  done

(* One seed, one machine: coalesce both ways, then compare every phase. *)
let check_seed ~config ~machine seed =
  let mode = Remat.Mode.Briggs_remat in
  let cfg () = Gen.generate ~config seed in
  let ctx_old, cfg_old = fresh_ctx ~mode ~machine (cfg ()) in
  Reference.Coalesce.fixpoint ctx_old cfg_old;
  let ctx, _ = fresh_ctx ~mode ~machine (cfg ()) in
  let g = Remat.Allocator.build ctx in
  let wl = Remat.Allocator.coalesce ctx g in
  if
    not
      (Cfg.structural_equal cfg_old
         (Iloc.Flat.to_routine (Remat.Context.flat ctx)))
  then
    QCheck.Test.fail_reportf "seed %d on %s: coalesced routines differ" seed
      machine.Remat.Machine.name;
  let k = ctx.Remat.Context.k in
  check_sig_counts
    (Printf.sprintf "seed %d on %s after coalesce" seed
       machine.Remat.Machine.name)
    ~k g;
  let costs = Remat.Spill_cost.phase ctx g in
  let old_stack = Reference.Simplify.run g ~k ~costs in
  let new_stack = Remat.Simplify.run g ~k ~costs in
  if old_stack <> new_stack then
    QCheck.Test.fail_reportf "seed %d on %s: simplify stacks differ" seed
      machine.Remat.Machine.name;
  let order = new_stack in
  let partners = partners_of ctx g in
  if Remat.Select.partners g wl.Remat.Coalesce.split_nodes <> partners then
    QCheck.Test.fail_reportf "seed %d on %s: partner lists differ" seed
      machine.Remat.Machine.name;
  let old_sel = Reference.Select.run g ~k ~order ~partners in
  let new_sel = Remat.Select.run g ~k ~order ~partners in
  if old_sel.Reference.Select.colors <> new_sel.Remat.Select.colors then
    QCheck.Test.fail_reportf "seed %d on %s: select colors differ" seed
      machine.Remat.Machine.name;
  if old_sel.Reference.Select.spilled <> new_sel.Remat.Select.spilled then
    QCheck.Test.fail_reportf "seed %d on %s: spill sets differ" seed
      machine.Remat.Machine.name;
  true

let equivalence_prop name config =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "old/new coloring identical (%s)" name)
    QCheck.(make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      List.for_all
        (fun machine -> check_seed ~config ~machine seed)
        machines)

let qcheck_props =
  [
    equivalence_prop "default" Gen.default;
    equivalence_prop "high-pressure" Gen.high_pressure;
  ]

(* --- directed: Worklist.Heap --- *)

let heap_tests =
  [
    test_case "pop order: metric asc, degree desc, node asc" `Quick
      (fun () ->
        let h = Worklist.Heap.create () in
        Worklist.Heap.push h ~metric:2.0 ~deg:3 10;
        Worklist.Heap.push h ~metric:1.0 ~deg:2 11;
        Worklist.Heap.push h ~metric:1.0 ~deg:5 12;
        Worklist.Heap.push h ~metric:1.0 ~deg:5 7;
        Worklist.Heap.push h ~metric:3.0 ~deg:9 1;
        let order = ref [] in
        let rec drain () =
          match Worklist.Heap.pop h with
          | Some (_, _, i) ->
              order := i :: !order;
              drain ()
          | None -> ()
        in
        drain ();
        (* metric 1.0 first, within it deg 5 before deg 2, within (1.0,5)
           node 7 before 12. *)
        check (list int) "order" [ 7; 12; 11; 10; 1 ] (List.rev !order));
    test_case "infinite metrics compare equal; degree breaks the tie"
      `Quick (fun () ->
        let h = Worklist.Heap.create () in
        Worklist.Heap.push h ~metric:infinity ~deg:2 0;
        Worklist.Heap.push h ~metric:infinity ~deg:7 1;
        let first =
          match Worklist.Heap.pop h with Some (_, _, i) -> i | None -> -1
        in
        check int "highest degree first" 1 first);
    test_case "lazy re-push surfaces in corrected position" `Quick
      (fun () ->
        (* Node 0 was pushed at degree 4; its true degree fell to 1,
           raising its metric past node 1's.  The consumer detects the
           stale entry and re-pushes — after which node 1 must pop
           first. *)
        let h = Worklist.Heap.create () in
        let deg = [| 1; 3 |] in
        let costs = [| 4.0; 6.0 |] in
        Worklist.Heap.push h ~metric:(4.0 /. 4.0) ~deg:4 0;
        Worklist.Heap.push h ~metric:(6.0 /. 3.0) ~deg:3 1;
        let rec pop_current () =
          match Worklist.Heap.pop h with
          | None -> -1
          | Some (_, d, i) ->
              if d <> deg.(i) then begin
                Worklist.Heap.push h
                  ~metric:(costs.(i) /. float_of_int deg.(i))
                  ~deg:deg.(i) i;
                pop_current ()
              end
              else i
        in
        check int "corrected minimum" 1 (pop_current ());
        check int "re-pushed entry still present" 0 (pop_current ()));
    test_case "clear empties, capacity survives" `Quick (fun () ->
        let h = Worklist.Heap.create ~cap:2 () in
        for i = 0 to 20 do
          Worklist.Heap.push h ~metric:(float_of_int i) ~deg:1 i
        done;
        check int "length" 21 (Worklist.Heap.length h);
        Worklist.Heap.clear h;
        check bool "empty" true (Worklist.Heap.is_empty h);
        check (option (triple (float 0.0) int int)) "pop on empty" None
          (Worklist.Heap.pop h));
  ]

(* --- directed: Worklist.Buckets --- *)

let bucket_tests =
  [
    test_case "pop_min sweeps upward" `Quick (fun () ->
        let b = Worklist.Buckets.create ~keys:8 in
        Worklist.Buckets.push b ~key:5 50;
        Worklist.Buckets.push b ~key:2 20;
        Worklist.Buckets.push b ~key:7 70;
        check (option int) "smallest key" (Some 20)
          (Worklist.Buckets.pop_min b);
        check (option int) "next" (Some 50) (Worklist.Buckets.pop_min b);
        check (option int) "last" (Some 70) (Worklist.Buckets.pop_min b);
        check (option int) "drained" None (Worklist.Buckets.pop_min b));
    test_case "push below cursor rewinds it" `Quick (fun () ->
        let b = Worklist.Buckets.create ~keys:8 in
        Worklist.Buckets.push b ~key:6 60;
        check (option int) "cursor advanced to 6" (Some 60)
          (Worklist.Buckets.pop_min b);
        Worklist.Buckets.push b ~key:1 10;
        Worklist.Buckets.push b ~key:6 61;
        check (option int) "rewound to low bucket" (Some 10)
          (Worklist.Buckets.pop_min b);
        check (option int) "then high" (Some 61)
          (Worklist.Buckets.pop_min b));
    test_case "out-of-range keys are clamped" `Quick (fun () ->
        let b = Worklist.Buckets.create ~keys:4 in
        Worklist.Buckets.push b ~key:100 1;
        Worklist.Buckets.push b ~key:(-3) 2;
        check (option int) "negative clamps to 0" (Some 2)
          (Worklist.Buckets.pop_min b);
        check (option int) "overflow clamps to keys-1" (Some 1)
          (Worklist.Buckets.pop_min b);
        check int "empty" 0 (Worklist.Buckets.length b));
  ]

(* --- directed: simplify boundaries --- *)

(* A clique of size c in a graph of n fresh integer nodes. *)
let clique n c =
  let edges = ref [] in
  for i = 0 to c - 1 do
    for j = i + 1 to c - 1 do
      edges := (i, j) :: !edges
    done
  done;
  Interference.of_edges n !edges

let const_k k _ = k

let simplify_tests =
  [
    test_case "degree k-1 is trivial, degree k is a candidate" `Quick
      (fun () ->
        (* K4 with k=3: every node has degree 3 = k, so the first removal
           must come from the candidate heap; after it the rest drain
           through the trivial queue.  The stack must still list all
           nodes. *)
        let g = clique 4 4 in
        let costs = [| 8.0; 4.0; 2.0; 1.0 |] in
        let stack = Remat.Simplify.run g ~k:(const_k 3) ~costs in
        let reference = Reference.Simplify.run g ~k:(const_k 3) ~costs in
        check (list int) "matches reference" reference stack;
        check int "all nodes on stack" 4 (List.length stack);
        (* Chaitin metric: cost/degree, all degrees 3 — node 3 is the
           cheapest candidate and is removed first (stack bottom). *)
        check int "cheapest spill candidate first"
          3
          (List.nth stack 3));
    test_case "isolated nodes go out through the trivial queue" `Quick
      (fun () ->
        let g = Interference.of_edges 3 [] in
        let costs = [| 1.0; 1.0; 1.0 |] in
        let stack = Remat.Simplify.run g ~k:(const_k 2) ~costs in
        check (list int) "FIFO order, reversed onto the stack" [ 2; 1; 0 ]
          stack);
    test_case "merged-away nodes never appear" `Quick (fun () ->
        let g = Interference.of_edges 4 [ (0, 1); (2, 3) ] in
        Interference.merge g ~keep:0 ~drop:2;
        let costs = [| 1.0; 1.0; 1.0; 1.0 |] in
        let stack = Remat.Simplify.run g ~k:(const_k 2) ~costs in
        check bool "2 absent" false (List.mem 2 stack);
        check int "three nodes" 3 (List.length stack);
        check (list int) "matches reference"
          (Reference.Simplify.run g ~k:(const_k 2) ~costs)
          stack);
    test_case "zero-degree collapse under k=0 stays exact" `Quick
      (fun () ->
        (* With k=0 nothing is ever trivial; when a candidate's last
           neighbor is removed its metric collapses from cost/deg to 0,
           which must surface it before costlier positive-metric nodes —
           the deg->0 re-push in simplify's remove. *)
        let g = Interference.of_edges 3 [ (0, 1) ] in
        let costs = [| 100.0; 100.0; 50.0 |] in
        let stack = Remat.Simplify.run g ~k:(const_k 0) ~costs in
        check (list int) "matches reference"
          (Reference.Simplify.run g ~k:(const_k 0) ~costs)
          stack);
  ]

(* --- directed: significance under mutation (counts derived from
   adjacency; the graph keeps none) --- *)

let sig_tests =
  [
    test_case "counts track add_edge flips" `Quick (fun () ->
        let k = const_k 2 in
        let g = Interference.of_edges ~k 4 [ (0, 1) ] in
        check int "no significant neighbors yet" 0
          (Testutil.sig_neighbors g 0);
        (* Raise node 1 to degree 2 = k: node 0 and 2 must see it. *)
        Interference.add_edge g 1 2;
        let expect i =
          Interference.fold_neighbors
            (fun nb acc ->
              if Interference.degree g nb >= k Reg.Int then acc + 1 else acc)
            g i 0
        in
        for i = 0 to 3 do
          check int
            (Printf.sprintf "node %d" i)
            (expect i)
            (Testutil.sig_neighbors g i)
        done);
    test_case "counts survive merge" `Quick (fun () ->
        let k = const_k 2 in
        let g =
          Interference.of_edges ~k 6
            [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]
        in
        Interference.merge g ~keep:0 ~drop:2;
        let expect i =
          Interference.fold_neighbors
            (fun nb acc ->
              if Interference.degree g nb >= k Reg.Int then acc + 1 else acc)
            g i 0
        in
        for i = 0 to 5 do
          if Interference.alive g i then
            check int
              (Printf.sprintf "node %d" i)
              (expect i)
              (Testutil.sig_neighbors g i)
        done;
        check int "dropped node cleared" 0 (Testutil.sig_neighbors g 2));
  ]

(* --- directed: stats rows --- *)

let stats_tests =
  [
    test_case "phase rows carry non-negative allocation counts" `Quick
      (fun () ->
        let cfg = Suite.Kernels.cfg_of (Suite.Kernels.find "repvid") in
        (* ~verify: the whole coloring stack feeds the allocation this
           checks, so run it under the static translation validator. *)
        let res = Remat.Allocator.allocate ~verify:true cfg in
        let rows = Remat.Stats.by_phase res.Remat.Allocator.stats in
        check bool "has rows" true (rows <> []);
        List.iter
          (fun (round, _, seconds, words, major) ->
            check bool "round non-negative" true (round >= 0);
            check bool "seconds non-negative" true (seconds >= 0.0);
            check bool "minor words non-negative" true (words >= 0.0);
            check bool "major words non-negative" true (major >= 0.0))
          rows);
  ]

(* --- the graph after every round's build–coalesce, pinned --- *)

(* Every node's [alive], [find], [degree], significant-neighbor count
   ([Testutil.sig_neighbors]: derived since the graph stopped keeping
   it, with the digest unchanged) and neighbor
   list (in iteration order: simplify's trivial queue and the spill
   victim tie-break both read that order) after each round's
   build–coalesce loop, over the 49 kernels under Briggs and Chaitin on
   the standard machine and 50 high-pressure fuzz routines on an 8+8
   machine.  The expected digest was generated while the graph still
   had two builders, the edge-set-deduplicated one below 32768 nodes
   and the counting scatter; a change to it means a build or a merge
   moved a neighbor, a count or a representative. *)
let shape_digest = "32ec32cfe43f97b4f0d6515f7199c345"

(* The routine under allocation after every round's build–coalesce
   loop, printed from the context's arena, over the same corpus.  The
   expected digest was generated while the graph still had two
   builders (see [shape_digest]); a change to it means the renaming or
   the copies coalescing deletes moved. *)
let arena_digest = "9bd497cc0ce6acf74d1322f3d5585037"

(* Allocate every routine of the corpus round by round, calling
   [on_round key ctx g] after each round's build and coalescing loop, and
   check that the rounds add up to [Allocator.allocate]'s result.  [start key]
   runs before each allocation, [refused key] when the register set is
   too small for the routine. *)
let each_round ~start ~refused ~on_round =
  let run key ~mode ~machine cfg =
    start key;
    match
      Testutil.allocate_by_rounds ~mode ~machine ~on_round:(on_round key) cfg
    with
    | exception Remat.Spill_code.Pressure_too_high _ -> refused key
    | out ->
        let res = Remat.Allocator.allocate ~mode ~machine cfg in
        if not (Cfg.structural_equal out res.Remat.Allocator.cfg) then
          Alcotest.failf "%s: round-by-round allocation differs from allocate"
            key
  in
  List.iter
    (fun (k : Suite.Kernels.kernel) ->
      let cfg = Suite.Kernels.cfg_of k in
      List.iter
        (fun mode ->
          run
            (Printf.sprintf "kernel %s %s" k.Suite.Kernels.name
               (Remat.Mode.to_string mode))
            ~mode ~machine:Remat.Machine.standard cfg)
        Remat.Mode.[ Briggs_remat; Chaitin_remat ])
    Suite.Kernels.all;
  let machine = Remat.Machine.make ~name:"scale" ~k_int:8 ~k_float:8 in
  for seed = 1 to 50 do
    run
      (Printf.sprintf "fuzz %d" seed)
      ~mode:Remat.Mode.Briggs_remat ~machine
      (Gen.generate ~config:Gen.high_pressure seed)
  done

let shape_corpus () =
  let b = Buffer.create (1 lsl 20) in
  let on_round _ ctx g =
    Printf.bprintf b "round %d\n" ctx.Remat.Context.round;
    for i = 0 to Interference.n_nodes g - 1 do
      Printf.bprintf b "%d %b %d %d %d:" i (Interference.alive g i)
        (Interference.find g i) (Interference.degree g i)
        (Testutil.sig_neighbors g i);
      List.iter (Printf.bprintf b " %d") (Interference.neighbors g i);
      Buffer.add_char b '\n'
    done
  in
  each_round
    ~start:(Printf.bprintf b "%s\n")
    ~refused:(fun _ -> Buffer.add_string b "refused\n")
    ~on_round;
  Buffer.contents b

let shape_tests =
  [
    test_case "graph shape after every round is pinned" `Quick (fun () ->
        let text = shape_corpus () in
        (* Spill rounds must be in the corpus, or the digest pins only
           first builds. *)
        check bool "some routines spill" true
          (List.mem "round 2" (String.split_on_char '\n' text));
        check string "digest" shape_digest
          (Digest.to_hex (Digest.string text)));
    test_case "arena after every round is pinned" `Quick (fun () ->
        let b = Buffer.create (1 lsl 20) in
        let on_round _ ctx _ =
          Printf.bprintf b "round %d\n" ctx.Remat.Context.round;
          Buffer.add_string b
            (Iloc.Printer.routine_to_string
               (Iloc.Flat.to_routine (Remat.Context.flat ctx)))
        in
        each_round
          ~start:(Printf.bprintf b "%s\n")
          ~refused:(fun _ -> Buffer.add_string b "refused\n")
          ~on_round;
        check string "digest" arena_digest
          (Digest.to_hex (Digest.string (Buffer.contents b))));
    test_case "arena spill costs equal the structured walk, every round"
      `Quick (fun () ->
        let rounds = ref 0 in
        let on_round key ctx g =
          incr rounds;
          (* Real liveness of the coalesced arena, computed here: the
             production phase decides which ranges cross a block from
             its own sweep. *)
          let bl = Testutil.boundary (Remat.Context.flat ctx) in
          let uindex = bl.Dataflow.Liveness.Boundary.uindex in
          let live_in_iter b f =
            Dataflow.Bitset.iter
              (fun u -> f (Dataflow.Reg_index.reg uindex u))
              bl.Dataflow.Liveness.Boundary.live_in.(b)
          in
          let expect =
            Reference.Spill_cost.compute
              (Iloc.Flat.to_routine (Remat.Context.flat ctx))
              ctx.Remat.Context.loops g ~live_in_iter
              ~tags:ctx.Remat.Context.tags ~infinite:ctx.Remat.Context.infinite
          in
          let got = Remat.Spill_cost.phase ctx g in
          Array.iteri
            (fun i c ->
              if Int64.bits_of_float c <> Int64.bits_of_float got.(i) then
                Alcotest.failf "%s round %d node %d: cost %h, expected %h" key
                  ctx.Remat.Context.round i got.(i) c)
            expect
        in
        each_round ~start:ignore ~refused:ignore ~on_round;
        check bool "rounds compared" true (!rounds > 0));
  ]

(* --- merges on random graphs --- *)

(* A random graph, then merges of random live, non-adjacent pairs; after
   each merge the graph must agree with a pair set kept here: membership,
   degree = neighbor-list length, and significant-neighbor counts. *)
let merge_prop =
  QCheck.Test.make ~count:200 ~name:"merges keep adjacency, degrees and counts exact"
    QCheck.(
      make
        Gen.(
          int_range 2 40 >>= fun n ->
          pair (return n)
            (pair
               (list_size (int_bound (3 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1))))
               (list_size (int_bound n) (pair nat nat)))))
    (fun (n, (edges, picks)) ->
      let k = 3 in
      let g = Interference.of_edges ~k:(const_k k) n edges in
      let key i j = if i < j then (i, j) else (j, i) in
      let pairs = Hashtbl.create 64 in
      List.iter (fun (i, j) -> if i <> j then Hashtbl.replace pairs (key i j) ()) edges;
      let check_all what =
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if Interference.interfere g i j <> Hashtbl.mem pairs (key i j) && i <> j
            then QCheck.Test.fail_reportf "%s: interfere %d %d disagrees" what i j
          done;
          if Interference.degree g i <> List.length (Interference.neighbors g i) then
            QCheck.Test.fail_reportf "%s: degree of %d" what i
        done;
        check_sig_counts what ~k:(const_k k) g
      in
      check_all "build";
      List.iter
        (fun (a, b) ->
          let alive = List.filter (Interference.alive g) (List.init n Fun.id) in
          let m = List.length alive in
          if m >= 2 then begin
            let keep = List.nth alive (a mod m) and drop = List.nth alive (b mod m) in
            if keep <> drop && not (Interference.interfere g keep drop) then begin
              Interference.merge g ~keep ~drop;
              let moved =
                Hashtbl.fold
                  (fun (i, j) () acc ->
                    if i = drop then j :: acc else if j = drop then i :: acc else acc)
                  pairs []
              in
              List.iter
                (fun x ->
                  Hashtbl.remove pairs (key drop x);
                  Hashtbl.replace pairs (key keep x) ())
                moved;
              check_all (Printf.sprintf "merge %d into %d" drop keep)
            end
          end)
        picks;
      true)

let () =
  Alcotest.run "coloring"
    [
      ("old-vs-new", List.map QCheck_alcotest.to_alcotest qcheck_props);
      ("worklist-heap", heap_tests);
      ("worklist-buckets", bucket_tests);
      ("simplify-boundaries", simplify_tests);
      ("significant-degree", sig_tests);
      ("stats", stats_tests);
      ("graph-shape", shape_tests);
      ("merge", [ QCheck_alcotest.to_alcotest merge_prop ]);
    ]
