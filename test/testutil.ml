(* Shared fixtures and generators for the test suites. *)

module Reg = Iloc.Reg
module Instr = Iloc.Instr
module Builder = Iloc.Builder
module Cfg = Iloc.Cfg
module Symbol = Iloc.Symbol

(* ------------------------------------------------------------------ *)
(* Fixed routines                                                      *)
(* ------------------------------------------------------------------ *)

(* Straight-line arithmetic; no control flow, no memory. *)
let straight () =
  let b = Builder.create "straight" in
  let r1 = Builder.ireg b and r2 = Builder.ireg b and r3 = Builder.ireg b in
  let f1 = Builder.freg b and f2 = Builder.freg b in
  Builder.block b "entry"
    [
      Instr.ldi r1 7;
      Instr.ldi r2 35;
      Instr.add r3 r1 r2;
      Instr.lfi f1 2.5;
      Instr.itof f2 r3;
      Instr.fmul f2 f2 f1;
      Instr.print_ r3;
      Instr.print_ f2;
    ]
    ~term:(Instr.ret (Some r3));
  Builder.finish b

(* A diamond: one φ-node for [x] at the join. *)
let diamond () =
  let b = Builder.create "diamond" in
  let c = Builder.ireg b and x = Builder.ireg b and y = Builder.ireg b in
  let t = Builder.ireg b in
  Builder.block b "entry"
    [ Instr.ldi c 1; Instr.ldi x 10; Instr.ldi y 3; Instr.cmp Instr.Gt t c y ]
    ~term:(Instr.cbr t "then" "else");
  Builder.block b "then" [ Instr.addi x x 5 ] ~term:(Instr.jmp "join");
  Builder.block b "else" [ Instr.muli x x 2 ] ~term:(Instr.jmp "join");
  Builder.block b "join" [ Instr.print_ x ] ~term:(Instr.ret (Some x));
  Builder.finish b

(* Simple counted loop: sum 0..9 into an accumulator. *)
let counted_loop () =
  let b = Builder.create "counted_loop" in
  let i = Builder.ireg b and acc = Builder.ireg b and t = Builder.ireg b in
  let zero = Builder.ireg b in
  Builder.block b "entry"
    [ Instr.ldi i 10; Instr.ldi acc 0; Instr.ldi zero 0 ]
    ~term:(Instr.jmp "head");
  Builder.block b "head"
    [ Instr.cmp Instr.Gt t i zero ]
    ~term:(Instr.cbr t "body" "exit");
  Builder.block b "body"
    [ Instr.add acc acc i; Instr.subi i i 1 ]
    ~term:(Instr.jmp "head");
  Builder.block b "exit" [ Instr.print_ acc ] ~term:(Instr.ret (Some acc));
  Builder.finish b

(* The paper's Figure 1: a pointer that is loop-invariant in the first
   loop and walks the array in the second, under enough integer register
   pressure that it spills on a 16-register machine.  The pressure values
   are loads (not rematerializable), so the allocator must keep them in
   registers or pay; the pointer's first value is a label address and
   should be rematerialized by the Briggs allocator. *)
(* The paper's Figure 1 pattern, replicated across [pointers] arrays so
   that register pressure comes from the pointers themselves: every
   pointer is loop-invariant in the first (hot) loop and walks its array
   in the second loop.  Under Chaitin's scheme each pointer is a
   multi-valued live range with mixed definitions, so a spill pays
   stores and reloads in both loops; the paper's allocator splits off the
   never-killed label-address value and rematerializes it in the first
   loop with a one-cycle immediate. *)
let fig1 ?(pointers = 20) ?(hot_iters = 40) () =
  let b = Builder.create "fig1" in
  let arr k = Printf.sprintf "a%d" k in
  for k = 0 to pointers - 1 do
    Builder.data b ~readonly:true
      ~init:(Symbol.Float_elts (List.init 8 (fun i -> float_of_int ((k * 8) + i))))
      (arr k) 8
  done;
  let ps = List.init pointers (fun _ -> Builder.ireg b) in
  let y = Builder.freg b in
  let x = Builder.freg b in
  let i = Builder.ireg b in
  let t = Builder.ireg b in
  let zero = Builder.ireg b in
  Builder.block b "entry"
    (List.concat (List.mapi (fun k p -> [ Instr.laddr p (arr k) ]) ps)
    @ [ Instr.lfi y 0.0; Instr.ldi i hot_iters ])
    ~term:(Instr.jmp "loop1");
  Builder.block b "loop1"
    (List.concat_map (fun p -> [ Instr.load x p; Instr.fadd y y x ]) ps
    @ [ Instr.subi i i 1; Instr.ldi zero 0; Instr.cmp Instr.Gt t i zero ])
    ~term:(Instr.cbr t "loop1" "mid");
  Builder.block b "mid" [ Instr.ldi i 8 ] ~term:(Instr.jmp "loop2");
  Builder.block b "loop2"
    (List.concat_map
       (fun p -> [ Instr.load x p; Instr.fadd y y x; Instr.addi p p 1 ])
       ps
    @ [ Instr.subi i i 1; Instr.ldi zero 0; Instr.cmp Instr.Gt t i zero ])
    ~term:(Instr.cbr t "loop2" "exit");
  Builder.block b "exit"
    [ Instr.print_ y ]
    ~term:(Instr.ret (Some i));
  Builder.finish b

(* Many simultaneously-live float and int values. *)
let high_pressure ?(n = 24) () =
  let b = Builder.create "high_pressure" in
  Builder.data b ~readonly:false
    ~init:(Symbol.Int_elts (List.init n (fun i -> i + 1)))
    "m" n;
  let base = Builder.ireg b in
  let vs = List.init n (fun _ -> Builder.ireg b) in
  let acc = Builder.ireg b in
  Builder.block b "entry"
    ((Instr.laddr base "m"
      :: List.concat (List.mapi (fun k v -> [ Instr.loadi v base k ]) vs))
    @ (Instr.ldi acc 0 :: List.map (fun v -> Instr.add acc acc v) vs)
    @ List.map (fun v -> Instr.mul acc acc v) vs
    @ [ Instr.print_ acc ])
    ~term:(Instr.ret (Some acc));
  Builder.finish b

(* A source that already holds spill code: its slot 0 would collide
   with the allocator's own first spill slot, so every allocator entry
   point must refuse it, naming the [spill] as [entry]'s instruction 3. *)
let pre_spilled_text =
  String.concat "\n"
    [
      "routine pre2";
      "entry:";
      "  r100 <- ldi 7";
      "  r101 <- ldi 0";
      "  r102 <- add r100 r101";
      "  spill r102 -> [0]";
      "  r1 <- add r101 r101";
      "  r2 <- addi r1 2";
      "  r3 <- addi r2 3";
      "  r4 <- addi r3 4";
      "  r5 <- addi r4 5";
      "  r6 <- add r1 r2";
      "  r7 <- add r6 r3";
      "  r8 <- add r7 r4";
      "  r9 <- add r8 r5";
      "  r10 <- add r9 r1";
      "  r11 <- add r10 r2";
      "  r12 <- add r11 r3";
      "  r13 <- add r12 r4";
      "  r14 <- add r13 r5";
      "  r20 <- reload [0]";
      "  print r20";
      "  print r14";
      "  ret";
      "";
    ]

let pre_spilled_refusal = "invalid input routine: pre2/entry#3: "

let all_fixed () =
  [
    ("straight", straight ());
    ("diamond", diamond ());
    ("counted_loop", counted_loop ());
    ("fig1", fig1 ());
    ("high_pressure", high_pressure ());
  ]

(* ------------------------------------------------------------------ *)
(* Execution helpers                                                   *)
(* ------------------------------------------------------------------ *)

let run_ok ?fuel cfg =
  match Sim.Interp.run ?fuel cfg with
  | outcome -> outcome
  | exception Sim.Interp.Runtime_error msg ->
      Alcotest.failf "%s failed to run: %s" cfg.Cfg.name msg

let assert_equiv ~what reference candidate =
  let a = run_ok reference and b = run_ok candidate in
  if not (Sim.Interp.outcome_equal a b) then
    Alcotest.failf "%s: allocated code diverges from original (%s)" what
      reference.Cfg.name

(* Every test allocation runs under the static translation validator:
   an unfaithful allocation fails the suite even when no execution
   exercises the broken path. *)
let alloc ?mode ?machine cfg =
  let res =
    match Remat.Allocator.allocate ~verify:true ?mode ?machine cfg with
    | res -> res
    | exception Remat.Allocator.Verification_error es ->
        Alcotest.failf "static verification failed for %s: %s" cfg.Cfg.name
          (String.concat "; " es)
  in
  (match Remat.Allocator.check res with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "allocation check failed for %s: %s" cfg.Cfg.name
        (String.concat "; " es));
  res

(* Allocate under [mode]/[machine] and require observational equivalence
   with the original routine. *)
let alloc_equiv ?mode ?machine cfg =
  let res = alloc ?mode ?machine cfg in
  assert_equiv ~what:"alloc_equiv" cfg res.Remat.Allocator.cfg;
  res

(* ------------------------------------------------------------------ *)
(* Random structured programs                                          *)
(* ------------------------------------------------------------------ *)

(* The generator proper lives in [Fuzz.Gen] (one home for tests, the
   [ralloc fuzz] campaign driver and the reducer); the tests draw a seed
   and delegate.  Generated routines are terminating, definitely assigned
   and memory safe by construction — see [Fuzz.Gen] for the invariants. *)
module Gen_prog = struct
  let gen_cfg : Cfg.t QCheck.Gen.t =
   fun st -> Fuzz.Gen.generate (QCheck.Gen.int_bound 0x3FFFFFFF st)

  let arbitrary_cfg =
    QCheck.make gen_cfg ~print:(fun cfg -> Iloc.Printer.routine_to_string cfg)
end


(* The number of [i]'s neighbors that are significant now, read off the
   adjacency: the graph keeps no such count, since Briggs' test scans
   the two neighbor vectors itself and stops early. *)
let sig_neighbors g i =
  Remat.Interference.fold_neighbors
    (fun nb acc -> if Remat.Interference.significant g nb then acc + 1 else acc)
    g i 0

(* ------------------------------------------------------------------ *)
(* Round-by-round allocation                                           *)
(* ------------------------------------------------------------------ *)

(* [counter]'s value in one round, and its largest value in any round,
   read off [Stats.counters]. *)
let counter_in_round stats ~round counter =
  List.fold_left
    (fun acc (r, c, n) -> if r = round && c = counter then acc + n else acc)
    0
    (Remat.Stats.counters stats)

(* The rounds of [stats]'s [Cfa] rows: [[0]] when the allocation
   analysed its control flow exactly once, in its front half. *)
let cfa_rounds stats =
  List.filter_map
    (fun (r : Remat.Stats.row) ->
      if r.Remat.Stats.phase = Remat.Stats.Cfa then Some r.Remat.Stats.round
      else None)
    (Remat.Stats.rows stats)

let max_per_round stats counter =
  List.fold_left
    (fun acc (_, c, n) -> if c = counter then max acc n else acc)
    0
    (Remat.Stats.counters stats)

(* The Chaitin–Briggs pipeline of [Remat.Allocator.allocate], spelled
   out from its public phases so a test can look at the context and the
   round's graph after each round's build and coalescing loop:
   [on_round ctx g] runs then, before spill costs.  Returns the
   allocated routine; callers compare it with
   [Remat.Allocator.allocate]'s to show this loop is the production
   one.  Raises [Remat.Spill_code.Pressure_too_high] like the
   allocator does. *)
let allocate_by_rounds ~mode ~machine ~on_round input =
  let ctx =
    Remat.Allocator.context ~mode ~machine (Remat.Allocator.front_half input)
  in
  let module G = Remat.Interference in
  let slots = Reg.Tbl.create 8 and slot_counter = ref 0 in
  let rec round r =
    if r > 64 then failwith "allocate_by_rounds: round limit";
    Remat.Context.set_round ctx r;
    let g = Remat.Allocator.build ctx in
    let wl = Remat.Allocator.coalesce ctx g in
    on_round ctx g;
    let costs = Remat.Spill_cost.phase ctx g in
    let order = Remat.Simplify.phase ctx g ~costs in
    let sel =
      Remat.Select.phase ctx g ~split_nodes:wl.Remat.Coalesce.split_nodes
        ~order
    in
    match sel.Remat.Select.spilled with
    | [] ->
        (* The allocator's final rewrite: every register to its node's
           color, with the copies this makes into identities deleted. *)
        let colors = sel.Remat.Select.colors in
        Iloc.Flat.to_routine
          (Remat.Coalesce.rename g
             (fun i -> match colors.(i) with Some c -> c | None -> assert false)
             (Remat.Context.flat ctx))
    | spilled ->
        (* The allocator's temporary deferral: spill real ranges when
           any are uncolored, else evict each stuck temporary's
           cheapest finite-cost neighbor. *)
        let infinite = ctx.Remat.Context.infinite in
        let temps, real =
          List.partition (fun i -> Reg.Tbl.mem infinite (G.reg g i)) spilled
        in
        let spilled =
          if real <> [] then real
          else
            List.filter_map
              (fun t ->
                match
                  List.filter (fun nb -> costs.(nb) < infinity) (G.neighbors g t)
                with
                | [] -> None
                | nb :: nbs ->
                    Some
                      (List.fold_left
                         (fun best c -> if costs.(c) < costs.(best) then c else best)
                         nb nbs))
              temps
            |> List.sort_uniq Int.compare
        in
        if spilled = [] then failwith "allocate_by_rounds: irreducible";
        let _, fl =
          Remat.Spill_code.insert_flat (Remat.Context.flat ctx) ~phis:[||]
            ~tags:ctx.Remat.Context.tags ~infinite
            ~spilled:(List.map (G.reg g) spilled)
            ~slots ~slot_counter
        in
        ctx.Remat.Context.flat <- fl;
        round (r + 1)
  in
  round 1

(* Boundary liveness of an arena, over its own postorder. *)
let boundary fl =
  Dataflow.Liveness.Boundary.compute ~order:(Dataflow.Order.postorder_flat fl)
    fl

(* Dense liveness of a φ-free routine, through its arena. *)
let liveness cfg =
  let fl = Iloc.Flat.of_routine cfg in
  Dataflow.Liveness.compute fl ~order:(Dataflow.Order.postorder_flat fl)
    ~phis:[||]

(* An SSA-form routine as the SSA family holds it: the arena of its
   records and, beside it, each block's φs. *)
let ssa_arena (cfg : Cfg.t) =
  let plain = Cfg.copy cfg in
  Cfg.iter_blocks (fun b -> b.Iloc.Block.phis <- []) plain;
  let packed = Iloc.Flat.packed_of_reg in
  let phis =
    Array.init (Cfg.n_blocks cfg) (fun b ->
        Array.of_list
          (List.map
             (fun (p : Iloc.Phi.t) ->
               {
                 Iloc.Flat.dst = packed p.Iloc.Phi.dst;
                 args =
                   List.map (fun (pred, a) -> (pred, packed a)) p.Iloc.Phi.args;
               })
             (Cfg.block cfg b).Iloc.Block.phis))
  in
  (Iloc.Flat.of_routine plain, phis)
