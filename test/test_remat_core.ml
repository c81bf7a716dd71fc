(* Tests for the allocator's component phases: the tag lattice, sparse
   propagation, renumber, interference graph, coalescing, spill costs,
   simplify and select. *)

module Cfg = Iloc.Cfg
module Reg = Iloc.Reg
module Instr = Iloc.Instr
module Tag = Remat.Tag

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let tag_testable = Alcotest.testable Tag.pp Tag.equal

(* --- lattice --- *)

let tag_unit =
  [
    tc "initial tags" (fun () ->
        check tag_testable "ldi" (Tag.Inst (Instr.Ldi 5))
          (Tag.initial (Instr.Ldi 5));
        check tag_testable "copy" Tag.Top (Tag.initial Instr.Copy);
        check tag_testable "add" Tag.Bottom (Tag.initial Instr.Add);
        check tag_testable "load" Tag.Bottom (Tag.initial Instr.Load));
    tc "meet laws" (fun () ->
        let i5 = Tag.Inst (Instr.Ldi 5) and i6 = Tag.Inst (Instr.Ldi 6) in
        check tag_testable "T ^ x" i5 (Tag.meet Tag.Top i5);
        check tag_testable "x ^ T" i5 (Tag.meet i5 Tag.Top);
        check tag_testable "B ^ x" Tag.Bottom (Tag.meet Tag.Bottom i5);
        check tag_testable "i ^ i" i5 (Tag.meet i5 i5);
        check tag_testable "i ^ j" Tag.Bottom (Tag.meet i5 i6);
        check tag_testable "T ^ T" Tag.Top (Tag.meet Tag.Top Tag.Top));
    tc "meet is commutative and associative on samples" (fun () ->
        let elems =
          [
            Tag.Top;
            Tag.Bottom;
            Tag.Inst (Instr.Ldi 1);
            Tag.Inst (Instr.Ldi 2);
            Tag.Inst (Instr.Laddr ("a", 0));
          ]
        in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                check Alcotest.bool "comm" true
                  (Tag.equal (Tag.meet a b) (Tag.meet b a));
                List.iter
                  (fun c ->
                    check Alcotest.bool "assoc" true
                      (Tag.equal
                         (Tag.meet a (Tag.meet b c))
                         (Tag.meet (Tag.meet a b) c)))
                  elems)
              elems)
          elems);
    tc "leq order" (fun () ->
        let i = Tag.Inst (Instr.Ldi 1) in
        check Alcotest.bool "B <= i" true (Tag.leq Tag.Bottom i);
        check Alcotest.bool "i <= T" true (Tag.leq i Tag.Top);
        check Alcotest.bool "T <= i" false (Tag.leq Tag.Top i);
        check Alcotest.bool "i <= i" true (Tag.leq i i));
  ]

(* --- propagation --- *)

let tags_of cfg =
  let ssa = Ssa.Construct.run (Cfg.split_critical_edges cfg) in
  let vals = Ssa.Values.analyze ssa in
  let tags = Remat.Remat_analysis.run ssa vals in
  (ssa, vals, tags)

let propagation_unit =
  [
    tc "copies take their source's tag" (fun () ->
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 7\n\
          \  r2 <- copy r1\n\
          \  r3 <- addi r2 1\n\
          \  r4 <- copy r3\n\
          \  print r4\n\
          \  ret\n"
        in
        let _, vals, tags = tags_of (Iloc.Parser.routine src) in
        let tag_of_value v =
          (* values keep distinct names; find by scanning defs *)
          let found = ref Tag.Top in
          for i = 0 to Ssa.Values.count vals - 1 do
            match Ssa.Values.def vals i with
            | Ssa.Values.Def_instr { instr; _ }
              when instr.Instr.op = v ->
                found := tags.(i)
            | _ -> ()
          done;
          !found
        in
        check tag_testable "ldi is inst" (Tag.Inst (Instr.Ldi 7))
          (tag_of_value (Instr.Ldi 7));
        (* both copies exist; find them by their tags *)
        let copy_tags = ref [] in
        for i = 0 to Ssa.Values.count vals - 1 do
          match Ssa.Values.def vals i with
          | Ssa.Values.Def_instr { instr = { Instr.op = Instr.Copy; _ }; _ } ->
              copy_tags := tags.(i) :: !copy_tags
          | _ -> ()
        done;
        check Alcotest.int "two copies" 2 (List.length !copy_tags);
        check Alcotest.bool "one inst copy" true
          (List.exists (fun t -> Tag.equal t (Tag.Inst (Instr.Ldi 7))) !copy_tags);
        check Alcotest.bool "one bottom copy" true
          (List.exists (fun t -> Tag.equal t Tag.Bottom) !copy_tags));
    tc "phi of equal insts stays inst" (fun () ->
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  r2 <- laddr @a\n\
          \  cbr r1 a b\n\
           a:\n\
          \  r2 <- laddr @a\n\
          \  jmp join\n\
           b:\n\
          \  r2 <- laddr @a\n\
          \  jmp join\n\
           join:\n\
          \  r3 <- loadi r2 0\n\
          \  print r3\n\
          \  ret\n\
           routine pad\n\
           entry:\n\
          \  ret\n"
        in
        (* need the symbol: build via program text with data *)
        ignore src;
        let src =
          "routine x\n\
           data const a[2] = { 5 6 }\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  r2 <- laddr @a\n\
          \  cbr r1 a b\n\
           a:\n\
          \  r2 <- laddr @a\n\
          \  jmp join\n\
           b:\n\
          \  r2 <- laddr @a\n\
          \  jmp join\n\
           join:\n\
          \  r3 <- loadi r2 0\n\
          \  print r3\n\
          \  ret\n"
        in
        let _, vals, tags = tags_of (Iloc.Parser.routine src) in
        for i = 0 to Ssa.Values.count vals - 1 do
          match Ssa.Values.def vals i with
          | Ssa.Values.Def_phi _ ->
              check tag_testable "phi tag" (Tag.Inst (Instr.Laddr ("a", 0))) tags.(i)
          | _ -> ()
        done);
    tc "phi of different insts goes bottom" (fun () ->
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  r2 <- ldi 10\n\
          \  cbr r1 a b\n\
           a:\n\
          \  r2 <- ldi 20\n\
          \  jmp join\n\
           b:\n\
          \  jmp join\n\
           join:\n\
          \  print r2\n\
          \  ret\n"
        in
        let _, vals, tags = tags_of (Iloc.Parser.routine src) in
        let seen_phi = ref false in
        for i = 0 to Ssa.Values.count vals - 1 do
          match Ssa.Values.def vals i with
          | Ssa.Values.Def_phi _ ->
              seen_phi := true;
              check tag_testable "phi tag" Tag.Bottom tags.(i)
          | _ -> ()
        done;
        check Alcotest.bool "phi found" true !seen_phi);
    tc "no top survives" (fun () ->
        List.iter
          (fun (_, cfg) ->
            let _, _, tags = tags_of cfg in
            Array.iter
              (fun t ->
                check Alcotest.bool "not top" false (Tag.equal t Tag.Top))
              tags)
          (Testutil.all_fixed ()));
    tc "figure 1 pointer values" (fun () ->
        (* In fig1, p's values: laddr (inst), p+1 (bottom), and the phi
           merging them (bottom). *)
        let _, vals, tags = tags_of (Testutil.fig1 ()) in
        let laddr_inst = ref 0 and phi_bottom = ref 0 in
        for i = 0 to Ssa.Values.count vals - 1 do
          (match Ssa.Values.def vals i with
          | Ssa.Values.Def_instr
              { instr = { Instr.op = Instr.Laddr _ as op; _ }; _ } ->
              if Tag.equal tags.(i) (Tag.Inst op) then incr laddr_inst
          | _ -> ());
          match Ssa.Values.def vals i with
          | Ssa.Values.Def_phi _ ->
              if Tag.equal tags.(i) Tag.Bottom then incr phi_bottom
          | _ -> ()
        done;
        check Alcotest.bool "laddr tagged inst" true (!laddr_inst >= 1);
        check Alcotest.bool "some phi is bottom" true (!phi_bottom >= 1));
  ]

(* --- renumber --- *)

let renumber_unit =
  [
    tc "briggs isolates the never-killed value with one split" (fun () ->
        (* Figure 3: the minimal placement needs exactly one split copy
           for the pointer (p0 | p12). *)
        let cfg = Cfg.split_critical_edges (Testutil.fig1 ()) in
        let rn = Remat.Renumber.run Remat.Mode.Briggs_remat cfg in
        check Alcotest.bool "has splits" true (rn.Remat.Renumber.split_pairs <> []);
        (match Iloc.Validate.routine rn.Remat.Renumber.cfg with
        | Ok () -> ()
        | Error es ->
            Alcotest.failf "renumbered code invalid: %s"
              (String.concat "; " (List.map Iloc.Validate.error_to_string es)));
        (* The renumbered code must still behave identically. *)
        Testutil.assert_equiv ~what:"renumber fig1" cfg rn.Remat.Renumber.cfg);
    tc "chaitin modes never split" (fun () ->
        List.iter
          (fun mode ->
            List.iter
              (fun (name, cfg) ->
                let cfg = Cfg.split_critical_edges cfg in
                let rn = Remat.Renumber.run mode cfg in
                check Alcotest.int (name ^ " no splits") 0
                  (List.length rn.Remat.Renumber.split_pairs);
                Testutil.assert_equiv ~what:(name ^ " renumber")
                  cfg rn.Remat.Renumber.cfg)
              (Testutil.all_fixed ()))
          [ Remat.Mode.No_remat; Remat.Mode.Chaitin_remat ]);
    tc "renumber preserves behaviour in all modes" (fun () ->
        List.iter
          (fun mode ->
            List.iter
              (fun (name, cfg) ->
                let cfg = Cfg.split_critical_edges cfg in
                let rn = Remat.Renumber.run mode cfg in
                Testutil.assert_equiv
                  ~what:
                    (Printf.sprintf "%s renumber %s" name
                       (Remat.Mode.to_string mode))
                  cfg rn.Remat.Renumber.cfg)
              (Testutil.all_fixed ()))
          Remat.Mode.all);
    tc "every live range is tagged" (fun () ->
        let cfg = Cfg.split_critical_edges (Testutil.fig1 ()) in
        let rn = Remat.Renumber.run Remat.Mode.Briggs_remat cfg in
        Reg.Set.iter
          (fun r ->
            match Reg.Tbl.find_opt rn.Remat.Renumber.tags r with
            | Some (Tag.Inst _ | Tag.Bottom) -> ()
            | Some Tag.Top -> Alcotest.failf "%s tagged Top" (Reg.to_string r)
            | None -> Alcotest.failf "%s untagged" (Reg.to_string r))
          (Cfg.all_regs rn.Remat.Renumber.cfg));
    tc "phi-splits mode splits bottom merges too" (fun () ->
        let cfg = Cfg.split_critical_edges (Testutil.counted_loop ()) in
        let minimal = Remat.Renumber.run Remat.Mode.Briggs_remat cfg in
        let eager = Remat.Renumber.run Remat.Mode.Briggs_remat_phi_splits cfg in
        check Alcotest.bool "more splits" true
          (List.length eager.Remat.Renumber.split_pairs
          > List.length minimal.Remat.Renumber.split_pairs);
        Testutil.assert_equiv ~what:"phi-splits renumber" cfg
          eager.Remat.Renumber.cfg);
  ]

(* --- interference --- *)

let interference_unit =
  [
    tc "simultaneously live values interfere" (fun () ->
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  r2 <- ldi 2\n\
          \  r3 <- add r1 r2\n\
          \  print r1\n\
          \  print r3\n\
          \  ret\n"
        in
        let cfg = Iloc.Parser.routine src in
        let live = Dataflow.Liveness.compute cfg in
        let g = Remat.Interference.build cfg live in
        let i r = Remat.Interference.index g (Reg.make r Reg.Int) in
        check Alcotest.bool "r1-r2" true (Remat.Interference.interfere g (i 1) (i 2));
        check Alcotest.bool "r1-r3" true (Remat.Interference.interfere g (i 1) (i 3));
        (* r2 dies at the add; r3 is born there -> no interference *)
        check Alcotest.bool "r2-r3" false
          (Remat.Interference.interfere g (i 2) (i 3)));
    tc "copy source does not interfere with destination" (fun () ->
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  r2 <- copy r1\n\
          \  print r2\n\
          \  print r1\n\
          \  ret\n"
        in
        let cfg = Iloc.Parser.routine src in
        let live = Dataflow.Liveness.compute cfg in
        let g = Remat.Interference.build cfg live in
        let i r = Remat.Interference.index g (Reg.make r Reg.Int) in
        check Alcotest.bool "r1-r2" false
          (Remat.Interference.interfere g (i 1) (i 2)));
    tc "classes do not interfere" (fun () ->
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  f1 <- lfi 1.5\n\
          \  print r1\n\
          \  print f1\n\
          \  ret\n"
        in
        let cfg = Iloc.Parser.routine src in
        let live = Dataflow.Liveness.compute cfg in
        let g = Remat.Interference.build cfg live in
        let ii = Remat.Interference.index g (Reg.make 1 Reg.Int) in
        let fi = Remat.Interference.index g (Reg.make 1 Reg.Float) in
        check Alcotest.bool "cross-class" false
          (Remat.Interference.interfere g ii fi);
        check Alcotest.int "edges" 0 (Remat.Interference.n_edges g));
    tc "degree equals adjacency length" (fun () ->
        let cfg = Testutil.high_pressure () in
        let rn = Remat.Renumber.run Remat.Mode.Briggs_remat
            (Cfg.split_critical_edges cfg) in
        let live = Dataflow.Liveness.compute rn.Remat.Renumber.cfg in
        let g = Remat.Interference.build rn.Remat.Renumber.cfg live in
        for i = 0 to Remat.Interference.n_nodes g - 1 do
          check Alcotest.int "degree" (List.length (Remat.Interference.neighbors g i))
            (Remat.Interference.degree g i)
        done);
    tc "matrix is symmetric" (fun () ->
        let cfg = Testutil.fig1 () in
        let rn = Remat.Renumber.run Remat.Mode.Briggs_remat
            (Cfg.split_critical_edges cfg) in
        let live = Dataflow.Liveness.compute rn.Remat.Renumber.cfg in
        let g = Remat.Interference.build rn.Remat.Renumber.cfg live in
        let n = Remat.Interference.n_nodes g in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            check Alcotest.bool "sym"
              (Remat.Interference.interfere g i j)
              (Remat.Interference.interfere g j i)
          done
        done);
    tc "on_pairs counts a repeated pair once as an edge" (fun () ->
        (* Both definitions of r2 see r1 live, so the sweep emits the
           pair {r1,r2} twice; the scatter keeps one edge. *)
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  r2 <- ldi 2\n\
          \  r2 <- add r2 r1\n\
          \  print r1\n\
          \  print r2\n\
          \  ret\n"
        in
        let fl = Iloc.Flat.of_routine (Iloc.Parser.routine src) in
        let counts = ref None in
        let g =
          Remat.Interference.build_flat_boundary
            ~on_pairs:(fun ~emitted ~dropped -> counts := Some (emitted, dropped))
            (Dataflow.Reg_index.of_flat fl)
            fl
            (Dataflow.Liveness.Boundary.compute fl)
        in
        check
          Alcotest.(option (pair int int))
          "emitted, dropped" (Some (2, 1)) !counts;
        check Alcotest.int "edges" 1 (Remat.Interference.n_edges g);
        let i r = Remat.Interference.index g (Reg.make r Reg.Int) in
        check (Alcotest.list Alcotest.int) "r1's neighbors" [ i 2 ]
          (Remat.Interference.neighbors g (i 1));
        check (Alcotest.list Alcotest.int) "r2's neighbors" [ i 1 ]
          (Remat.Interference.neighbors g (i 2)));
    tc "arena build ≡ structured reference on every kernel" (fun () ->
        (* The allocator's front half on the arena, as [ralloc dot
           --interference] runs it, against structured renumbering,
           dense liveness and the reference build, with and without the
           optimizer: the dumps print every edge in adjacency order. *)
        List.iter
          (fun (k : Suite.Kernels.kernel) ->
            List.iter
              (fun optimize ->
                let cfg = Suite.Kernels.cfg_of k in
                let cfg = if optimize then Opt.Pipeline.run cfg else cfg in
                let cfg = Cfg.split_critical_edges cfg in
                let rn = Remat.Renumber.run Remat.Mode.Briggs_remat cfg in
                let reference =
                  Remat.Dump.interference_to_string
                    ~split_pairs:rn.Remat.Renumber.split_pairs
                    (Remat.Interference.build rn.Remat.Renumber.cfg
                       (Dataflow.Liveness.compute rn.Remat.Renumber.cfg))
                in
                let fr =
                  Remat.Renumber.run_flat Remat.Mode.Briggs_remat
                    (Iloc.Flat.of_routine cfg)
                in
                let fl = fr.Remat.Renumber.fl in
                let arena =
                  Remat.Dump.interference_to_string
                    ~split_pairs:fr.Remat.Renumber.f_split_pairs
                    (Remat.Interference.build_flat_boundary
                       (Dataflow.Reg_index.of_flat fl)
                       fl
                       (Dataflow.Liveness.Boundary.compute fl))
                in
                if not (String.equal reference arena) then
                  Alcotest.failf "kernel %s (optimize %b): graphs differ"
                    k.Suite.Kernels.name optimize)
              [ false; true ])
          Suite.Kernels.all);
  ]

(* --- spill costs --- *)

let dense_live_in_iter (live : Dataflow.Liveness.t) b f =
  Dataflow.Bitset.iter
    (fun li -> f (Dataflow.Reg_index.reg live.Dataflow.Liveness.regs li))
    live.Dataflow.Liveness.live_in.(b)

let spill_cost_unit =
  [
    tc "deep loops weigh more" (fun () ->
        let cfg = Cfg.split_critical_edges (Testutil.counted_loop ()) in
        let rn = Remat.Renumber.run Remat.Mode.No_remat cfg in
        let c = rn.Remat.Renumber.cfg in
        let dom = Dataflow.Dominance.compute c in
        let loops = Dataflow.Loops.compute c dom in
        let live = Dataflow.Liveness.compute c in
        let g = Remat.Interference.build c live in
        let costs =
          Remat.Spill_cost.compute (Iloc.Flat.of_routine c) loops g ~live_in_iter:(dense_live_in_iter live) ~tags:rn.Remat.Renumber.tags
            ~infinite:(Reg.Tbl.create 1)
        in
        (* the accumulator lives in the loop: cost must include 10x
           weighted accesses, so it exceeds any entry-only value's cost *)
        let max_cost = Array.fold_left max 0. costs in
        check Alcotest.bool "loop cost dominates" true (max_cost >= 40.));
    tc "remat values are cheaper to spill" (fun () ->
        let src =
          "routine x\n\
           data const t[2] = { 1 2 }\n\
           entry:\n\
          \  r1 <- laddr @t\n\
          \  r2 <- loadi r1 0\n\
          \  r3 <- loadi r1 1\n\
          \  r4 <- add r2 r3\n\
          \  r5 <- loadi r1 0\n\
          \  r6 <- add r4 r5\n\
          \  print r6\n\
          \  print r1\n\
          \  ret\n"
        in
        let cfg = Cfg.split_critical_edges (Iloc.Parser.routine src) in
        let rn = Remat.Renumber.run Remat.Mode.Briggs_remat cfg in
        let c = rn.Remat.Renumber.cfg in
        let dom = Dataflow.Dominance.compute c in
        let loops = Dataflow.Loops.compute c dom in
        let live = Dataflow.Liveness.compute c in
        let g = Remat.Interference.build c live in
        let briggs_costs =
          Remat.Spill_cost.compute (Iloc.Flat.of_routine c) loops g ~live_in_iter:(dense_live_in_iter live) ~tags:rn.Remat.Renumber.tags
            ~infinite:(Reg.Tbl.create 1)
        in
        let bottom_tags = Reg.Tbl.create 8 in
        let no_remat_costs =
          Remat.Spill_cost.compute (Iloc.Flat.of_routine c) loops g ~live_in_iter:(dense_live_in_iter live) ~tags:bottom_tags
            ~infinite:(Reg.Tbl.create 1)
        in
        (* Renumber renames registers, so locate the laddr-tagged live
           range through the tag table; it must be cheaper with tags than
           without. *)
        let laddr_lr =
          Reg.Tbl.fold
            (fun r tag acc ->
              match tag with
              | Tag.Inst (Instr.Laddr ("t", _)) -> Some r
              | _ -> acc)
            rn.Remat.Renumber.tags None
        in
        let i1 =
          Remat.Interference.index g (Option.get laddr_lr)
        in
        check Alcotest.bool "cheaper" true
          (briggs_costs.(i1) < no_remat_costs.(i1)));
    tc "infinite marking" (fun () ->
        let cfg = Testutil.straight () in
        let live = Dataflow.Liveness.compute cfg in
        let g = Remat.Interference.build cfg live in
        let dom = Dataflow.Dominance.compute cfg in
        let loops = Dataflow.Loops.compute cfg dom in
        let infinite = Reg.Tbl.create 4 in
        Reg.Tbl.replace infinite (Reg.make 1 Reg.Int) ();
        let costs =
          Remat.Spill_cost.compute (Iloc.Flat.of_routine cfg) loops g ~live_in_iter:(dense_live_in_iter live) ~tags:(Reg.Tbl.create 1) ~infinite
        in
        let i1 = Remat.Interference.index g (Reg.make 1 Reg.Int) in
        check Alcotest.bool "infinite" true (costs.(i1) = infinity));
  ]

(* --- simplify and select --- *)

let color_unit =
  let build_graph cfg =
    let live = Dataflow.Liveness.compute cfg in
    Remat.Interference.build cfg live
  in
  [
    tc "low-pressure code colors without spilling" (fun () ->
        let cfg = Testutil.straight () in
        let g = build_graph cfg in
        let k _ = 4 in
        let costs = Array.make (Remat.Interference.n_nodes g) 1.0 in
        let order = Remat.Simplify.run g ~k ~costs in
        check Alcotest.int "order covers graph"
          (Remat.Interference.n_nodes g)
          (List.length order);
        let partners = Array.make (Remat.Interference.n_nodes g) [] in
        let sel = Remat.Select.run g ~k ~order ~partners in
        check Alcotest.int "no spills" 0 (List.length sel.Remat.Select.spilled));
    tc "coloring is proper" (fun () ->
        let cfg = Testutil.high_pressure () in
        let rn =
          Remat.Renumber.run Remat.Mode.Briggs_remat
            (Cfg.split_critical_edges cfg)
        in
        let g = build_graph rn.Remat.Renumber.cfg in
        let k _ = 32 in
        let costs = Array.make (Remat.Interference.n_nodes g) 1.0 in
        let order = Remat.Simplify.run g ~k ~costs in
        let partners = Array.make (Remat.Interference.n_nodes g) [] in
        let sel = Remat.Select.run g ~k ~order ~partners in
        check Alcotest.int "no spills" 0 (List.length sel.Remat.Select.spilled);
        for i = 0 to Remat.Interference.n_nodes g - 1 do
          List.iter
            (fun j ->
              if
                sel.Remat.Select.colors.(i) <> None
                && sel.Remat.Select.colors.(i) = sel.Remat.Select.colors.(j)
              then Alcotest.failf "neighbors %d %d share a color" i j)
            (Remat.Interference.neighbors g i)
        done);
    tc "optimistic coloring beats pessimistic on a cycle" (fun () ->
        (* A 4-cycle is 2-colorable although every node has degree 2; the
           optimistic allocator must find the 2-coloring. *)
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  r2 <- ldi 2\n\
          \  r3 <- add r1 r2\n\
          \  r4 <- add r2 r3\n\
          \  r5 <- add r3 r4\n\
          \  r6 <- add r4 r5\n\
          \  print r6\n\
          \  ret\n"
        in
        let cfg = Iloc.Parser.routine src in
        let g = build_graph cfg in
        let k _ = 2 in
        let costs = Array.make (Remat.Interference.n_nodes g) 1.0 in
        let order = Remat.Simplify.run g ~k ~costs in
        let partners = Array.make (Remat.Interference.n_nodes g) [] in
        let sel = Remat.Select.run g ~k ~order ~partners in
        check Alcotest.int "no spills" 0 (List.length sel.Remat.Select.spilled));
    tc "biased coloring matches partners" (fun () ->
        (* Two non-interfering live ranges connected by a split should end
           up in the same register. *)
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  r2 <- copy r1\n\
          \  print r2\n\
          \  ret\n"
        in
        let cfg = Iloc.Parser.routine src in
        let g = build_graph cfg in
        let k _ = 8 in
        let i1 = Remat.Interference.index g (Reg.make 1 Reg.Int) in
        let i2 = Remat.Interference.index g (Reg.make 2 Reg.Int) in
        let partners = Array.make (Remat.Interference.n_nodes g) [] in
        partners.(i1) <- [ i2 ];
        partners.(i2) <- [ i1 ];
        let costs = Array.make (Remat.Interference.n_nodes g) 1.0 in
        let order = Remat.Simplify.run g ~k ~costs in
        let sel = Remat.Select.run g ~k ~order ~partners in
        check Alcotest.bool "same color" true
          (sel.Remat.Select.colors.(i1) = sel.Remat.Select.colors.(i2)));
  ]

(* --- §6 loop splitting --- *)

(* A value defined before the loop, unused inside it, used after it: the
   case the paper's discussion of Figure 3 singles out (the value p0 with
   code between its definition and the loop). *)
let live_through_routine () =
  Iloc.Parser.routine
    "routine x\n\
     data c[4] = { 7 8 9 10 }\n\
     entry:\n\
    \  r9 <- laddr @c\n\
    \  r1 <- loadi r9 0\n\
    \  r2 <- ldi 5\n\
    \  r7 <- ldi 0\n\
    \  jmp head\n\
     head:\n\
    \  r3 <- ldi 0\n\
    \  r4 <- cmp_gt r2 r3\n\
    \  cbr r4 body done\n\
     body:\n\
    \  r7 <- addi r7 3\n\
    \  r2 <- subi r2 1\n\
    \  jmp head\n\
     done:\n\
    \  print r1\n\
    \  print r7\n\
    \  ret\n"

let splitting_unit =
  let renumbered mode cfg =
    Remat.Renumber.run mode (Cfg.split_critical_edges cfg)
  in
  [
    tc "all-loops splitting preserves behaviour" (fun () ->
        List.iter
          (fun (name, cfg) ->
            let cfg = Cfg.split_critical_edges cfg in
            let rn = renumbered Remat.Mode.Briggs_remat cfg in
            let pairs =
              Remat.Splitting.run `All_loops rn.Remat.Renumber.cfg
                ~tags:rn.Remat.Renumber.tags
            in
            ignore pairs;
            (match Iloc.Validate.routine rn.Remat.Renumber.cfg with
            | Ok () -> ()
            | Error es ->
                Alcotest.failf "%s: split code invalid: %s" name
                  (String.concat "; "
                     (List.map Iloc.Validate.error_to_string es)));
            Testutil.assert_equiv ~what:(name ^ " loop split") cfg
              rn.Remat.Renumber.cfg)
          (Testutil.all_fixed ()));
    tc "live-through value gets entry and exit copies" (fun () ->
        let rn = renumbered Remat.Mode.Briggs_remat (live_through_routine ()) in
        let before_copies =
          Cfg.fold_blocks
            (fun acc b ->
              acc
              + List.length (List.filter Instr.is_copy b.Iloc.Block.body))
            0 rn.Remat.Renumber.cfg
        in
        let pairs =
          Remat.Splitting.run `Unreferenced rn.Remat.Renumber.cfg
            ~tags:rn.Remat.Renumber.tags
        in
        check Alcotest.bool "pairs recorded" true (pairs <> []);
        let after_copies =
          Cfg.fold_blocks
            (fun acc b ->
              acc
              + List.length (List.filter Instr.is_copy b.Iloc.Block.body))
            0 rn.Remat.Renumber.cfg
        in
        check Alcotest.bool "copies inserted" true
          (after_copies > before_copies);
        Testutil.assert_equiv ~what:"unreferenced split"
          (live_through_routine ()) rn.Remat.Renumber.cfg);
    tc "unreferenced split isolates the spill victim" (fun () ->
        (* With the live-through value split, the loop-crossing segment
           has no references, so the allocator can spill it without
           adding any in-loop memory traffic. *)
        let cfg = live_through_routine () in
        let machine = Remat.Machine.make ~name:"m" ~k_int:2 ~k_float:2 in
        List.iter
          (fun mode -> ignore (Testutil.alloc_equiv ~mode ~machine cfg))
          [ Remat.Mode.Briggs_remat; Remat.Mode.Briggs_split_unreferenced ]);
    tc "loop-split modes behave like briggs through the allocator" (fun () ->
        List.iter
          (fun (name, cfg) ->
            List.iter
              (fun mode ->
                let what =
                  Printf.sprintf "%s under %s" name (Remat.Mode.to_string mode)
                in
                ignore (Testutil.alloc_equiv ~mode cfg) |> fun () -> ignore what)
              [
                Remat.Mode.Briggs_split_all_loops;
                Remat.Mode.Briggs_split_outer_loops;
                Remat.Mode.Briggs_split_unreferenced;
              ])
          (Testutil.all_fixed ()));
    tc "dag routines are untouched" (fun () ->
        let rn = renumbered Remat.Mode.Briggs_remat (Testutil.diamond ()) in
        let pairs =
          Remat.Splitting.run `All_loops rn.Remat.Renumber.cfg
            ~tags:rn.Remat.Renumber.tags
        in
        check Alcotest.int "no pairs" 0 (List.length pairs));
  ]

(* interference matches the naive definition: two same-class registers
   interfere iff one is defined while the other is in some live-out or
   upward-exposed position — checked against a direct recomputation *)
let interference_prop =
  QCheck.Test.make ~count:40 ~name:"interference matches naive recomputation"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let live = Dataflow.Liveness.compute cfg in
      let g = Remat.Interference.build cfg live in
      (* naive: recompute the live set per instruction position *)
      let expected = Hashtbl.create 64 in
      Cfg.iter_blocks
        (fun b ->
          let live_now =
            ref
              (Reg.Set.of_list (Dataflow.Liveness.live_out live b.Iloc.Block.id))
          in
          List.iter
            (fun (i : Instr.t) ->
              (match i.Instr.dst with
              | Some d ->
                  let skip =
                    if Instr.is_copy i then Some i.Instr.srcs.(0) else None
                  in
                  Reg.Set.iter
                    (fun l ->
                      if
                        (not (Reg.equal l d))
                        && Option.fold ~none:true
                             ~some:(fun s -> not (Reg.equal l s))
                             skip
                        && Reg.cls_equal (Reg.cls l) (Reg.cls d)
                      then begin
                        let key =
                          if Reg.compare d l < 0 then (d, l) else (l, d)
                        in
                        Hashtbl.replace expected key ()
                      end)
                    !live_now;
                  live_now := Reg.Set.remove d !live_now
              | None -> ());
              List.iter
                (fun u -> live_now := Reg.Set.add u !live_now)
                (Instr.uses i))
            (List.rev (Iloc.Block.instrs b)))
        cfg;
      let ok = ref true in
      Hashtbl.iter
        (fun (a, b) () ->
          if
            not
              (Remat.Interference.interfere g
                 (Remat.Interference.index g a)
                 (Remat.Interference.index g b))
          then ok := false)
        expected;
      (* and the edge count matches exactly *)
      !ok && Remat.Interference.n_edges g = Hashtbl.length expected)

(* Build an interference graph directly from an edge list (all nodes in
   the integer class), for coloring properties independent of any code. *)
let graph_of_edges n edges = Remat.Interference.of_edges n edges

let graph_gen =
  QCheck.Gen.(
    int_range 1 18 >>= fun n ->
    list_size (int_bound 60) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >|= fun edges -> (n, edges))

(* On any graph, simplify + select produce a proper partial coloring and
   the stack covers every node exactly once. *)
let coloring_prop =
  QCheck.Test.make ~count:300 ~name:"simplify/select produce proper colorings"
    (QCheck.make graph_gen)
    (fun (n, edges) ->
      let g = graph_of_edges n edges in
      let k _ = 3 in
      let costs = Array.init n (fun i -> float_of_int (i + 1)) in
      let order = Remat.Simplify.run g ~k ~costs in
      if List.length (List.sort_uniq Int.compare order) <> n then false
      else begin
        let partners = Array.make n [] in
        let sel = Remat.Select.run g ~k ~order ~partners in
        let ok = ref true in
        for i = 0 to n - 1 do
          (match sel.Remat.Select.colors.(i) with
          | Some c -> if c < 0 || c >= 3 then ok := false
          | None -> ());
          List.iter
            (fun j ->
              match (sel.Remat.Select.colors.(i), sel.Remat.Select.colors.(j)) with
              | Some a, Some b -> if a = b then ok := false
              | _ -> ())
            (Remat.Interference.neighbors g i)
        done;
        !ok
      end)

(* Any graph whose degrees are all below k colors without spills. *)
let trivial_coloring_prop =
  QCheck.Test.make ~count:300 ~name:"low-degree graphs never spill"
    (QCheck.make graph_gen)
    (fun (n, edges) ->
      let g = graph_of_edges n edges in
      let maxdeg =
        List.fold_left max 0 (List.init n (Remat.Interference.degree g))
      in
      let k _ = maxdeg + 1 in
      let costs = Array.make n 1.0 in
      let order = Remat.Simplify.run g ~k ~costs in
      let partners = Array.make n [] in
      let sel = Remat.Select.run g ~k ~order ~partners in
      sel.Remat.Select.spilled = [])

let () =
  Alcotest.run "remat-core"
    [
      ("tag", tag_unit);
      ("propagation", propagation_unit);
      ("renumber", renumber_unit);
      ("interference", interference_unit);
      ("spill-cost", spill_cost_unit);
      ("color", color_unit);
      ("splitting", splitting_unit);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ interference_prop; coloring_prop; trivial_coloring_prop ] );
    ]
