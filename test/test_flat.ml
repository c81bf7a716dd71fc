(* The flat arena bridge: [Flat.to_routine (Flat.of_routine r)] must be
   structurally identical to [r] for every routine the generator can
   produce, and for directed corners the generator is unlikely to hit
   (empty blocks, three-source instructions, float immediates including
   NaN, every opcode).  Also covers the explicit [Instr.equal]/
   [Instr.hash] pair the bridge's interning relies on. *)

module Cfg = Iloc.Cfg
module Block = Iloc.Block
module Instr = Iloc.Instr
module Reg = Iloc.Reg
module Flat = Iloc.Flat
module Symbol = Iloc.Symbol

let roundtrip cfg = Flat.to_routine (Flat.of_routine cfg)

let check_roundtrip name cfg =
  let back = roundtrip cfg in
  if not (Cfg.structural_equal back cfg) then
    Alcotest.failf "%s: round-trip not structurally equal:@.%s@.vs@.%s" name
      (Cfg.to_string cfg) (Cfg.to_string back)

(* --- directed: one routine exercising every opcode ------------------- *)

let ri n = Reg.make n Reg.Int
let rf n = Reg.make n Reg.Float

let every_opcode_cfg () =
  let a = ri 1 and b = ri 2 and c = ri 3 in
  let x = rf 4 and y = rf 5 and z = rf 6 in
  let sym = Symbol.make "tab" 8 in
  let ro = Symbol.make ~readonly:true ~init:(Symbol.Int_elts [ 7 ]) "ktab" 4 in
  let b0 =
    Block.make ~id:0 ~label:"entry"
      ~body:
        [
          Instr.ldi a 42;
          Instr.lfi x 3.5;
          Instr.lfi y Float.nan;
          Instr.laddr b ~off:3 "tab";
          Instr.lfp c 16;
          Instr.ldro b "ktab" 2;
          Instr.add c a b;
          Instr.sub c a b;
          Instr.mul c a b;
          Instr.div c a b;
          Instr.rem c a b;
          Instr.cmp Instr.Lt c a b;
          Instr.addi c a 5;
          Instr.subi c a (-5);
          Instr.muli c a 7;
          Instr.fadd z x y;
          Instr.fsub z x y;
          Instr.fmul z x y;
          Instr.fdiv z x y;
          Instr.fcmp Instr.Ge c x y;
          Instr.fneg z x;
          Instr.fabs z x;
          Instr.itof z a;
          Instr.ftoi c x;
          Instr.copy b a;
          Instr.load c a;
          Instr.loadx c a b;
          Instr.loadi c a 1;
          Instr.store ~value:c ~addr:a;
          Instr.storex ~value:z ~base:a ~idx:b;
          Instr.storei ~value:c ~base:a ~off:2;
          Instr.spill c 0;
          Instr.reload c 0;
          Instr.print_ c;
          Instr.nop;
        ]
      ~term:(Instr.cbr a "left" "right") ()
  in
  let b1 = Block.make ~id:1 ~label:"left" ~body:[] ~term:(Instr.jmp "join") () in
  let b2 =
    Block.make ~id:2 ~label:"right" ~body:[] ~term:(Instr.jmp "join") ()
  in
  let b3 =
    Block.make ~id:3 ~label:"join"
      ~body:[ Instr.copy c a ]
      ~term:(Instr.ret (Some c)) ()
  in
  Cfg.make ~name:"every_opcode" ~symbols:[ sym; ro ] [ b0; b1; b2; b3 ]

let test_every_opcode () = check_roundtrip "every_opcode" (every_opcode_cfg ())

let test_empty_blocks () =
  (* Blocks whose body is empty, a cbr with equal arms, and a bare ret. *)
  let a = ri 1 in
  let b0 =
    Block.make ~id:0 ~label:"entry" ~body:[ Instr.ldi a 1 ]
      ~term:(Instr.cbr a "mid" "mid") ()
  in
  let b1 = Block.make ~id:1 ~label:"mid" ~body:[] ~term:(Instr.jmp "out") () in
  let b2 = Block.make ~id:2 ~label:"out" ~body:[] ~term:(Instr.ret None) () in
  check_roundtrip "empty_blocks" (Cfg.make ~name:"empty_blocks" [ b0; b1; b2 ])

let test_float_immediates () =
  let x = rf 1 in
  let specials =
    [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1e308; 2.5 ]
  in
  let body = List.map (Instr.lfi x) specials @ [ Instr.print_ x ] in
  let b0 = Block.make ~id:0 ~label:"entry" ~body ~term:(Instr.ret None) () in
  let cfg = Cfg.make ~name:"floats" [ b0 ] in
  check_roundtrip "float_immediates" cfg;
  (* Interning must not identify distinct bit patterns (-0.0 vs 0.0) and
     must identify repeated ones. *)
  let f = Flat.of_routine cfg in
  if Array.length f.Flat.floats <> List.length specials then
    Alcotest.failf "float pool has %d entries, expected %d"
      (Array.length f.Flat.floats) (List.length specials)

let test_supply_preserved () =
  let cfg = every_opcode_cfg () in
  ignore (Cfg.fresh_reg cfg Reg.Int);
  ignore (Cfg.fresh_reg cfg Reg.Float);
  let before = Reg.Supply.last cfg.Cfg.supply in
  let back = roundtrip cfg in
  Alcotest.(check int) "supply watermark" before
    (Reg.Supply.last back.Cfg.supply)

let test_edges_match () =
  let cfg = every_opcode_cfg () in
  let f = Flat.of_routine cfg in
  for b = 0 to Cfg.n_blocks cfg - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "succs of %d" b)
      (Cfg.succs cfg b) (Flat.succs_list f b);
    Alcotest.(check (list int))
      (Printf.sprintf "preds of %d" b)
      (Cfg.preds cfg b) (Flat.preds_list f b)
  done

let test_splice_identity () =
  (* Copying every slot through a Splice builder must reproduce the
     arena exactly. *)
  let cfg = every_opcode_cfg () in
  let f = Flat.of_routine cfg in
  let b = Flat.Splice.create f in
  for blk = 0 to Flat.n_blocks f - 1 do
    for slot = Flat.block_first f blk to Flat.block_term f blk do
      Flat.Splice.emit_slot b slot
    done;
    Flat.Splice.close_block b
  done;
  let f' = Flat.Splice.finish b ~supply_last:f.Flat.supply_last in
  if not (Cfg.structural_equal (Flat.to_routine f') cfg) then
    Alcotest.fail "splice identity: decoded routine differs"

let test_rejects_ssa () =
  (* A diamond with a redefinition on each arm, so construction has to
     place a φ at the join. *)
  let a = ri 1 in
  let b0 =
    Block.make ~id:0 ~label:"entry" ~body:[ Instr.ldi a 0 ]
      ~term:(Instr.cbr a "l" "r") ()
  in
  let b1 =
    Block.make ~id:1 ~label:"l" ~body:[ Instr.ldi a 1 ]
      ~term:(Instr.jmp "j") ()
  in
  let b2 =
    Block.make ~id:2 ~label:"r" ~body:[ Instr.ldi a 2 ]
      ~term:(Instr.jmp "j") ()
  in
  let b3 = Block.make ~id:3 ~label:"j" ~body:[] ~term:(Instr.ret (Some a)) () in
  let cfg = Ssa.Construct.run (Cfg.make ~name:"diamond" [ b0; b1; b2; b3 ]) in
  if not (Cfg.in_ssa cfg) then Alcotest.fail "expected a φ at the join";
  match Flat.of_routine cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_routine accepted an SSA routine"

(* --- Instr.equal / Instr.hash ---------------------------------------- *)

let test_instr_equal () =
  let a = ri 1 and b = ri 2 in
  let x = rf 3 in
  let checks =
    [
      (Instr.ldi a 4, Instr.ldi a 4, true);
      (Instr.ldi a 4, Instr.ldi a 5, false);
      (Instr.ldi a 4, Instr.ldi b 4, false);
      (Instr.ldi a 4, Instr.addi a a 4, false);
      (Instr.lfi x Float.nan, Instr.lfi x Float.nan, true);
      (Instr.lfi x 0.0, Instr.lfi x (-0.0), true);
      (* Float.equal semantics *)
      (Instr.lfi x 1.0, Instr.lfi x 2.0, false);
      (Instr.laddr a "s", Instr.laddr a "s", true);
      (Instr.laddr a "s", Instr.laddr a "t", false);
      (Instr.laddr a ~off:1 "s", Instr.laddr a ~off:2 "s", false);
      (Instr.cmp Instr.Lt a a b, Instr.cmp Instr.Lt a a b, true);
      (Instr.cmp Instr.Lt a a b, Instr.cmp Instr.Le a a b, false);
      (Instr.add a a b, Instr.add a a b, true);
      (Instr.add a a b, Instr.add a b a, false);
      (Instr.jmp "l", Instr.jmp "l", true);
      (Instr.jmp "l", Instr.jmp "m", false);
      (Instr.cbr a "l" "m", Instr.cbr a "l" "m", true);
      (Instr.cbr a "l" "m", Instr.cbr a "m" "l", false);
      (Instr.ret None, Instr.ret None, true);
      (Instr.ret None, Instr.ret (Some a), false);
      (Instr.spill a 1, Instr.spill a 1, true);
      (Instr.spill a 1, Instr.spill a 2, false);
    ]
  in
  List.iteri
    (fun k (i, j, expect) ->
      if Instr.equal i j <> expect then
        Alcotest.failf "equal case %d (%s vs %s): expected %b" k
          (Instr.to_string i) (Instr.to_string j) expect;
      if expect && Instr.hash i <> Instr.hash j then
        Alcotest.failf "hash case %d: equal instructions hash differently" k)
    checks

let test_hash_spreads () =
  (* Not a correctness requirement, but catches a degenerate hash. *)
  let a = ri 1 in
  let hs =
    List.init 64 (fun n -> Instr.hash (Instr.ldi a n))
    |> List.sort_uniq Int.compare
  in
  if List.length hs < 32 then Alcotest.fail "Instr.hash collapses immediates"

(* --- QCheck round-trip over generated routines ----------------------- *)

let gen_configs =
  [
    ("default", Fuzz.Gen.default);
    ("high_pressure", Fuzz.Gen.high_pressure);
    ( "deep",
      { Fuzz.Gen.default with Fuzz.Gen.max_depth = 4; max_stmts = 24 } );
    ( "mem_heavy",
      { Fuzz.Gen.high_pressure with Fuzz.Gen.mem_weight = 12 } );
    ( "nk_heavy",
      { Fuzz.Gen.default with Fuzz.Gen.never_killed_weight = 12 } );
  ]

(* Small enough that generated routines spill. *)
let tiny = Remat.Machine.make ~name:"tiny" ~k_int:6 ~k_float:4

let roundtrip_prop (name, config) =
  QCheck.Test.make ~count:100
    ~name:(Printf.sprintf "flat round-trip (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let cfg = Fuzz.Gen.generate ~config seed in
      let back = roundtrip cfg in
      if not (Cfg.structural_equal back cfg) then
        QCheck.Test.fail_reportf "seed %d: round-trip differs" seed
      else true)

let liveness_flat_prop (name, config) =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "flat liveness ≡ structured (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let cfg = Fuzz.Gen.generate ~config seed in
      let dense = Dataflow.Liveness.compute cfg in
      let bound = Dataflow.Liveness.Boundary.compute (Flat.of_routine cfg) in
      (* Boundary sets, reindexed through [uindex], must equal the
         structured dense sets exactly. *)
      let bound_out b =
        let open Dataflow.Liveness.Boundary in
        Dataflow.Bitset.fold
          (fun i acc -> Dataflow.Reg_index.reg bound.uindex i :: acc)
          bound.live_out.(b) []
        |> List.rev
      in
      let eq_regs a b = List.equal Reg.equal a b in
      for b = 0 to Cfg.n_blocks cfg - 1 do
        let open Dataflow.Liveness in
        if
          not
            (eq_regs (live_in dense b) (Boundary.live_in bound b)
            && eq_regs (live_out dense b) (bound_out b))
        then
          QCheck.Test.fail_reportf "seed %d: boundary sets differ at block %d"
            seed b
      done;
      true)

(* --- renumber A/B: flat-native pass vs structured must agree exactly - *)

let tag_list tbl =
  Reg.Tbl.fold (fun r t acc -> (r, t) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Reg.compare a b)
  |> List.map (fun (r, t) ->
         Printf.sprintf "%s:%s" (Reg.to_string r) (Remat.Tag.to_string t))

let renumber_ab_check ~what ~mode cfg =
  let cfg = Cfg.split_critical_edges cfg in
  let s = Remat.Renumber.run mode cfg in
  let f = Remat.Renumber.run_flat mode (Flat.of_routine cfg) in
  let fcfg = Flat.to_routine f.Remat.Renumber.fl in
  if not (Cfg.structural_equal fcfg s.Remat.Renumber.cfg) then
    Alcotest.failf "%s: flat renumber differs:@.%s@.vs@.%s" what
      (Cfg.to_string s.Remat.Renumber.cfg)
      (Cfg.to_string fcfg);
  Alcotest.(check int)
    (what ^ ": supply watermark")
    (Reg.Supply.last s.Remat.Renumber.cfg.Cfg.supply)
    (Reg.Supply.last fcfg.Cfg.supply);
  Alcotest.(check int) (what ^ ": n_values") s.Remat.Renumber.n_values
    f.Remat.Renumber.f_n_values;
  Alcotest.(check int)
    (what ^ ": n_live_ranges")
    s.Remat.Renumber.n_live_ranges f.Remat.Renumber.f_n_live_ranges;
  let pair (d, sr) = Printf.sprintf "%s<-%s" (Reg.to_string d) (Reg.to_string sr) in
  Alcotest.(check (list string))
    (what ^ ": split pairs")
    (List.map pair s.Remat.Renumber.split_pairs)
    (List.map pair f.Remat.Renumber.f_split_pairs);
  Alcotest.(check (list string))
    (what ^ ": tags")
    (tag_list s.Remat.Renumber.tags)
    (tag_list f.Remat.Renumber.f_tags)

let renumber_modes =
  [
    Remat.Mode.No_remat;
    Remat.Mode.Chaitin_remat;
    Remat.Mode.Briggs_remat;
    Remat.Mode.Briggs_remat_phi_splits;
  ]

let renumber_ab_prop (name, config) =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "flat renumber ≡ structured (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let cfg = Fuzz.Gen.generate ~config seed in
      List.iter
        (fun mode ->
          renumber_ab_check
            ~what:
              (Printf.sprintf "seed %d, %s" seed (Remat.Mode.to_string mode))
            ~mode (Cfg.copy cfg))
        renumber_modes;
      true)

(* --- graph A/B: boundary-fed build ≡ dense-fed build ----------------- *)

let graph_fingerprint g =
  let n = Remat.Interference.n_nodes g in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "n=%d e=%d\n" n (Remat.Interference.n_edges g));
  for i = 0 to n - 1 do
    Buffer.add_string buf (Reg.to_string (Remat.Interference.reg g i));
    Buffer.add_char buf ':';
    Buffer.add_string buf
      (string_of_int (Remat.Interference.sig_neighbors g i));
    (* Adjacency is compared in vector order: the boundary-fed build must
       insert the same edges in the same sequence, not just the same
       set. *)
    List.iter
      (fun j -> Buffer.add_string buf (Printf.sprintf " %d" j))
      (Remat.Interference.neighbors g i);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let graph_boundary_prop (name, config) =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "boundary-fed graph ≡ dense-fed (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let cfg = Fuzz.Gen.generate ~config seed in
      let fl = Flat.of_routine cfg in
      let bound = Dataflow.Liveness.Boundary.compute fl in
      let regs = Dataflow.Reg_index.of_flat fl in
      let k = Remat.Machine.k_for tiny in
      (* The structured reference: dense rows over the routine itself. *)
      let a =
        graph_fingerprint
          (Remat.Interference.build ~k cfg (Dataflow.Liveness.compute cfg))
      in
      let b =
        graph_fingerprint
          (Remat.Interference.build_flat_boundary ~k regs fl bound)
      in
      if not (String.equal a b) then
        QCheck.Test.fail_reportf "seed %d: graphs differ:@.%s@.vs@.%s" seed a b
      else true)

(* --- the build's scratch and the graphs it leaves ---------------------- *)

let arena_graph ?scratch cfg =
  let fl = Flat.of_routine cfg in
  Remat.Interference.build_flat_boundary ?scratch
    ~k:(Remat.Machine.k_for tiny)
    (Dataflow.Reg_index.of_flat fl)
    fl
    (Dataflow.Liveness.Boundary.compute fl)

(* A build that writes over the emission chunks an earlier build left,
   or grows past them, must produce the graph a build on fresh storage
   produces, and must leave the earlier build's graph as it was: no
   adjacency vector may alias a chunk.  The other routine is generated
   high-pressure, so one order of the two builds mostly shrinks into
   the chunks and the other grows out of them. *)
let scratch_reuse_prop (name, config) =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "build on reused scratch ≡ fresh (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let cfg = Fuzz.Gen.generate ~config seed in
      let other =
        Fuzz.Gen.generate ~config:Fuzz.Gen.high_pressure (seed + 1)
      in
      let fresh = graph_fingerprint (arena_graph cfg) in
      let fresh_other = graph_fingerprint (arena_graph other) in
      let check what expected g =
        let got = graph_fingerprint g in
        if not (String.equal expected got) then
          QCheck.Test.fail_reportf "seed %d: %s differs:@.%s@.vs@.%s" seed
            what expected got
      in
      let scratch = Remat.Interference.create_scratch () in
      let first = arena_graph ~scratch other in
      check "graph after another build" fresh (arena_graph ~scratch cfg);
      check "graph rebuilt on its own chunks" fresh (arena_graph ~scratch cfg);
      check "earlier graph" fresh_other first;
      let scratch = Remat.Interference.create_scratch () in
      let first = arena_graph ~scratch cfg in
      check "other graph after this one" fresh_other
        (arena_graph ~scratch other);
      check "earlier graph" fresh first;
      true)

(* Coalescing merges in place on the vectors the scatter adopted, spare
   capacity included.  The same merges on the arena build, on a copy of
   it and on the structured reference must leave the same graph —
   neighbor order, significance, representatives and counters — and the
   copy's merges must leave the build it was copied from untouched. *)
let merge_agree_prop (name, config) =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "merges on arena graph ≡ reference (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let module G = Remat.Interference in
      let cfg = Fuzz.Gen.generate ~config seed in
      let reference =
        G.build ~k:(Remat.Machine.k_for tiny) cfg
          (Dataflow.Liveness.compute cfg)
      in
      let arena = arena_graph cfg in
      let built = graph_fingerprint arena in
      let copied = G.copy arena in
      let untouched = G.copy arena in
      let fingerprint g =
        Printf.sprintf "%salive=%d union=%d reps=%s" (graph_fingerprint g)
          (G.n_alive g) (G.union_edges g)
          (String.concat " "
             (List.init (G.n_nodes g) (fun i -> string_of_int (G.find g i))))
      in
      let n = G.n_nodes reference in
      let rng = Random.State.make [| seed |] in
      for _ = 1 to n do
        let i = G.find reference (Random.State.int rng n)
        and j = G.find reference (Random.State.int rng n) in
        if
          i <> j
          && Reg.cls (G.reg reference i) = Reg.cls (G.reg reference j)
          && not (G.interfere reference i j)
        then
          List.iter (fun g -> G.merge g ~keep:i ~drop:j) [ reference; arena; copied ]
      done;
      let r = fingerprint reference in
      List.iter
        (fun (what, g) ->
          let got = fingerprint g in
          if not (String.equal r got) then
            QCheck.Test.fail_reportf "seed %d: %s differs:@.%s@.vs@.%s" seed
              what r got)
        [ ("merged build", arena); ("merged copy", copied) ];
      if not (String.equal built (graph_fingerprint untouched)) then
        QCheck.Test.fail_reportf "seed %d: merges changed another copy" seed;
      true)

(* --- arena build ≡ structured reference past the matrix's reach ------- *)

(* A window-8 dependence chain over [dense_node_limit] + 300 registers,
   the size at which a bit matrix would take 64 MB: the counting
   scatter must reproduce the structured reference's graph {e including}
   per-node neighbor vector order (the fingerprint prints adjacency in
   vector order).  The chain keeps the edge count linear in n, so the
   reference's adjacency-scan deduplication stays fast. *)
let test_arena_build_large_chain () =
  let n = Remat.Interference.dense_node_limit + 300 in
  let r i = ri (i + 1) in
  let body = ref [ Instr.ldi (r 0) 1 ] in
  for i = 1 to n - 1 do
    body := Instr.add (r i) (r (i - 1)) (r (max 0 (i - 8))) :: !body
  done;
  let b0 =
    Block.make ~id:0 ~label:"entry" ~body:(List.rev !body)
      ~term:(Instr.ret (Some (r (n - 1)))) ()
  in
  let cfg = Cfg.make ~name:"big" [ b0 ] in
  let fl = Flat.of_routine cfg in
  let regs = Dataflow.Reg_index.of_flat fl in
  let k = Remat.Machine.k_for tiny in
  Alcotest.(check int) "chain nodes" n (Dataflow.Reg_index.count regs);
  let a =
    graph_fingerprint
      (Remat.Interference.build ~k cfg (Dataflow.Liveness.compute cfg))
  in
  let b =
    graph_fingerprint
      (Remat.Interference.build_flat_boundary ~k regs fl
         (Dataflow.Liveness.Boundary.compute fl))
  in
  if not (String.equal a b) then
    Alcotest.fail "arena graph differs from the structured reference"

(* --- spill splice A/B: flat insertion ≡ structured insertion --------- *)

(* One spill-code insertion on both forms of the same renumbered
   routine, with the same tags and the same spilled set: the spliced
   arena must bridge back to exactly the routine the structured rewrite
   produces, with the same stats, slot counter and registered
   temporaries.  [pick] selects roughly a third of the live ranges; the
   renumber mode decides which of them carry rematerialization tags. *)
let splice_ab_check ~seed ~pick ~mode cfg =
  let rn = Remat.Renumber.run mode cfg in
  let spilled =
    Reg.Set.elements (Cfg.all_regs rn.Remat.Renumber.cfg)
    |> List.filter (fun r -> Reg.hash r mod 3 = pick)
  in
  let side () =
    (Reg.Tbl.copy rn.Remat.Renumber.tags, Reg.Tbl.create 16, ref (seed mod 5))
  in
  let s_tags, s_inf, s_slots = side () in
  let s_cfg = Cfg.copy rn.Remat.Renumber.cfg in
  let s =
    Remat.Spill_code.insert s_cfg ~tags:s_tags ~infinite:s_inf ~spilled
      ~slot_counter:s_slots
  in
  let f_tags, f_inf, f_slots = side () in
  let f, fl =
    Remat.Spill_code.insert_flat
      (Flat.of_routine rn.Remat.Renumber.cfg)
      ~tags:f_tags ~infinite:f_inf ~spilled ~slot_counter:f_slots
  in
  let f_cfg = Flat.to_routine fl in
  let keys tbl =
    Reg.Tbl.fold (fun r () acc -> r :: acc) tbl [] |> List.sort Reg.compare
  in
  let what = Remat.Mode.to_string mode in
  if not (Cfg.structural_equal s_cfg f_cfg) then
    QCheck.Test.fail_reportf "seed %d, %s: spliced routine differs:@.%s@.vs@.%s"
      seed what (Cfg.to_string s_cfg) (Cfg.to_string f_cfg);
  if
    s.Remat.Spill_code.memory_lrs <> f.Remat.Spill_code.memory_lrs
    || s.Remat.Spill_code.remat_lrs <> f.Remat.Spill_code.remat_lrs
    || !s_slots <> !f_slots
  then
    QCheck.Test.fail_reportf
      "seed %d, %s: stats differ: mem %d/%d remat %d/%d slots %d/%d" seed what
      s.Remat.Spill_code.memory_lrs f.Remat.Spill_code.memory_lrs
      s.Remat.Spill_code.remat_lrs f.Remat.Spill_code.remat_lrs !s_slots
      !f_slots;
  if
    Reg.Supply.last s_cfg.Cfg.supply <> Reg.Supply.last f_cfg.Cfg.supply
    || tag_list s_tags <> tag_list f_tags
    || not (List.equal Reg.equal (keys s_inf) (keys f_inf))
  then
    QCheck.Test.fail_reportf "seed %d, %s: temporaries registered differently"
      seed what

let splice_ab_prop (name, config) =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "flat spill splice ≡ structured (%s)" name)
    QCheck.(make Gen.(pair (int_bound 1_000_000) (int_bound 2)))
    (fun (seed, pick) ->
      let cfg = Cfg.split_critical_edges (Fuzz.Gen.generate ~config seed) in
      List.iter
        (fun mode -> splice_ab_check ~seed ~pick ~mode (Cfg.copy cfg))
        renumber_modes;
      true)

(* --- incremental edits: primed flat path ≡ cold allocation ----------- *)

let alloc_fingerprint (res : Remat.Allocator.result) =
  let open Remat.Allocator in
  Printf.sprintf "%s\nrounds=%d mem=%d remat=%d slots=%d coalesced=%d"
    (Cfg.to_string res.cfg) res.rounds res.spilled_memory res.spilled_remat
    res.spill_slots res.coalesced_copies

let outcome f =
  match f () with
  | v -> Ok v
  | exception (Remat.Allocator.Allocation_error msg
              | Remat.Spill_code.Pressure_too_high msg) ->
      Error msg

(* [allocate_snapshot base] then [allocate_incremental] of a seeded
   edit: on either path the result is byte-identical to a cold
   allocation of the edit; on the incremental path its first round
   built no graph, on the cold path it built one.  The tiny machine
   makes routines spill, so later rounds rebuild on the primed
   context's own arena. *)
let incremental_edit seed config =
  let base = Fuzz.Gen.generate ~config seed in
  let edit = Fuzz.Gen.mutate ~seed:(seed + 1) base in
  match
    outcome (fun () -> Remat.Allocator.allocate_snapshot ~machine:tiny base)
  with
  | Error _ -> `Not_reused (* the base itself does not fit the machine *)
  | Ok (_, None) ->
      QCheck.Test.fail_reportf "seed %d: briggs allocation took no snapshot"
        seed
  | Ok (_, Some snap) -> (
      let inc =
        outcome (fun () -> Remat.Allocator.allocate_incremental snap edit)
      in
      let cold =
        outcome (fun () -> Remat.Allocator.allocate ~machine:tiny edit)
      in
      match (inc, cold) with
      | Ok (path, res, _), Ok cold_res ->
          let a = alloc_fingerprint res and b = alloc_fingerprint cold_res in
          if not (String.equal a b) then
            QCheck.Test.fail_reportf
              "seed %d: incremental differs from cold:@.%s@.vs@.%s" seed a b;
          let round1 =
            Remat.Stats.counter_in_round res.Remat.Allocator.stats ~round:1
              Remat.Stats.Full_builds
          in
          (match path with
          | Remat.Allocator.Incremental when round1 <> 0 ->
              QCheck.Test.fail_reportf "seed %d: round 1 ran %d full builds"
                seed round1
          | Remat.Allocator.Cold when round1 <> 1 ->
              QCheck.Test.fail_reportf
                "seed %d: cold fallback's round 1 ran %d full builds" seed
                round1
          | _ -> ());
          if path = Remat.Allocator.Incremental then
            `Reused res.Remat.Allocator.rounds
          else `Not_reused
      | Error a, Error b when String.equal a b -> `Not_reused
      | Ok _, Error msg ->
          QCheck.Test.fail_reportf "seed %d: cold failed (%s), incremental not"
            seed msg
      | Error msg, _ ->
          QCheck.Test.fail_reportf "seed %d: incremental failed: %s" seed msg)

let incremental_edit_prop (name, config) =
  QCheck.Test.make ~count:25
    ~name:(Printf.sprintf "incremental edit ≡ cold allocation (%s)" name)
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      ignore (incremental_edit seed config);
      true)

let test_incremental_spill_rounds () =
  (* The property above must actually reach the primed path with spill
     rounds after it, not only fallbacks. *)
  let multi =
    List.init 40 Fun.id
    |> List.filter (fun seed ->
           match incremental_edit seed Fuzz.Gen.high_pressure with
           | `Reused rounds -> rounds > 1
           | `Not_reused -> false)
  in
  if multi = [] then
    Alcotest.fail "no edit reused a snapshot and then spilled"

(* --- one front half: the cold allocation's own snapshot --------------- *)

let eight = Remat.Machine.make ~name:"eight" ~k_int:8 ~k_float:8

let phase_rows (res : Remat.Allocator.result) phase =
  List.length
    (List.filter
       (fun (r : Remat.Stats.row) -> r.Remat.Stats.phase = phase)
       (Remat.Stats.rows res.Remat.Allocator.stats))

(* The paper's kernels under briggs and chaitin, and high-pressure
   routines under briggs, all on a machine small enough to spill. *)
let front_half_cases () =
  List.concat_map
    (fun (k : Suite.Kernels.kernel) ->
      List.map
        (fun mode ->
          ( Printf.sprintf "%s %s" k.Suite.Kernels.name
              (Remat.Mode.to_string mode),
            mode,
            Suite.Kernels.cfg_of k ))
        Remat.Mode.[ Briggs_remat; Chaitin_remat ])
    Suite.Kernels.all
  @ List.init 20 (fun seed ->
        ( Printf.sprintf "high_pressure %d" seed,
          Remat.Mode.Briggs_remat,
          Fuzz.Gen.generate ~config:Fuzz.Gen.high_pressure seed ))

let boundary_equal (a : Dataflow.Liveness.Boundary.t)
    (b : Dataflow.Liveness.Boundary.t) =
  let module B = Dataflow.Liveness.Boundary in
  let module RI = Dataflow.Reg_index in
  let rows_equal x y =
    Array.length x = Array.length y && Array.for_all2 Dataflow.Bitset.equal x y
  in
  RI.count a.B.uindex = RI.count b.B.uindex
  && List.for_all
       (fun i -> Reg.equal (RI.reg a.B.uindex i) (RI.reg b.B.uindex i))
       (List.init (RI.count a.B.uindex) Fun.id)
  && rows_equal a.B.live_in b.B.live_in
  && rows_equal a.B.live_out b.B.live_out
  && rows_equal a.B.ue b.B.ue
  && rows_equal a.B.kill b.B.kill

(* The cold entry that feeds edits allocates exactly what [allocate]
   does, renumbering once; its snapshot is round 1's front half as a
   fresh build would produce it, and still is after every later round
   has run — a round that recycled the captured liveness rows would
   show here. *)
let test_snapshot_is_cold_front_half () =
  let spilled = ref 0 in
  List.iter
    (fun (name, mode, cfg) ->
      let plain =
        outcome (fun () -> Remat.Allocator.allocate ~mode ~machine:eight cfg)
      in
      let with_snap =
        outcome (fun () ->
            Remat.Allocator.allocate_snapshot ~mode ~machine:eight cfg)
      in
      match (plain, with_snap) with
      | Error a, Error b when String.equal a b -> ()
      | Ok plain, Ok (res, Some snap) ->
          if res.Remat.Allocator.rounds > 1 then incr spilled;
          Alcotest.(check string)
            (name ^ ": output") (alloc_fingerprint plain)
            (alloc_fingerprint res);
          Alcotest.(check bool)
            (name ^ ": counters") true
            (Remat.Stats.counters plain.Remat.Allocator.stats
            = Remat.Stats.counters res.Remat.Allocator.stats);
          Alcotest.(check int) (name ^ ": renum rows") 1
            (phase_rows res Remat.Stats.Renum);
          let fl = snap.Remat.Allocator.snap_flat in
          let bl = Dataflow.Liveness.Boundary.compute fl in
          if not (boundary_equal snap.Remat.Allocator.snap_boundary bl) then
            Alcotest.failf "%s: snapshot liveness differs from its arena's"
              name;
          let fresh =
            Remat.Interference.build_flat_boundary
              ~k:(Remat.Machine.k_for eight)
              (Dataflow.Reg_index.of_flat fl) fl bl
          in
          if
            not
              (String.equal
                 (graph_fingerprint snap.Remat.Allocator.snap_graph)
                 (graph_fingerprint fresh))
          then
            Alcotest.failf "%s: snapshot graph differs from a fresh build" name
      | Ok _, Ok (_, None) -> Alcotest.failf "%s: no snapshot taken" name
      | _ -> Alcotest.failf "%s: the two entries disagree on failure" name)
    (front_half_cases ());
  if !spilled = 0 then Alcotest.fail "no case ran a second round"

(* Loop-splitting schemes rewrite the routine after renumber, so their
   allocations take no snapshot; the output is [allocate]'s. *)
let test_loop_schemes_take_no_snapshot () =
  let cfg = Suite.Kernels.cfg_of (Suite.Kernels.find "tomcatv") in
  List.iter
    (fun mode ->
      let res, snap = Remat.Allocator.allocate_snapshot ~mode cfg in
      let name = Remat.Mode.to_string mode in
      Alcotest.(check bool) (name ^ ": no snapshot") true (Option.is_none snap);
      Alcotest.(check string)
        (name ^ ": output")
        (alloc_fingerprint (Remat.Allocator.allocate ~mode cfg))
        (alloc_fingerprint res))
    Remat.Mode.
      [
        Briggs_split_all_loops;
        Briggs_split_outer_loops;
        Briggs_split_unreferenced;
      ]

(* A skeleton miss continues cold from the arena it renumbered: the
   bytes and counters are [allocate]'s, renumbering ran once, and the
   fresh snapshot it returns describes the edit — the same edit against
   it takes the incremental path.  Misses come from unrelated routines
   (always) and from seeded edits (sometimes). *)
let test_skeleton_miss_continues_cold () =
  let check_miss name snap edit =
    let path, res, snap' = Remat.Allocator.allocate_incremental snap edit in
    if path = Remat.Allocator.Cold then begin
      let plain = Remat.Allocator.allocate edit in
      Alcotest.(check string)
        (name ^ ": output") (alloc_fingerprint plain) (alloc_fingerprint res);
      Alcotest.(check bool)
        (name ^ ": counters") true
        (Remat.Stats.counters plain.Remat.Allocator.stats
        = Remat.Stats.counters res.Remat.Allocator.stats);
      Alcotest.(check int) (name ^ ": renum rows") 1
        (phase_rows res Remat.Stats.Renum);
      let again, res', _ = Remat.Allocator.allocate_incremental snap' edit in
      Alcotest.(check bool)
        (name ^ ": fresh snapshot reused") true
        (again = Remat.Allocator.Incremental);
      Alcotest.(check string)
        (name ^ ": reused output") (alloc_fingerprint plain)
        (alloc_fingerprint res')
    end;
    path
  in
  let snap_of cfg =
    match Remat.Allocator.allocate_snapshot cfg with
    | _, Some snap -> snap
    | _, None -> Alcotest.fail "briggs allocation took no snapshot"
  in
  let edit_misses = ref 0 in
  for seed = 0 to 39 do
    let base = Fuzz.Gen.generate seed in
    let snap = snap_of base in
    let other = Fuzz.Gen.generate (seed + 1000) in
    if check_miss (Printf.sprintf "seed %d vs %d" seed (seed + 1000)) snap other
       <> Remat.Allocator.Cold
    then Alcotest.failf "seed %d: an unrelated routine matched" seed;
    let edit = Fuzz.Gen.mutate ~seed:(seed + 1) base in
    if check_miss (Printf.sprintf "seed %d edit" seed) snap edit
       = Remat.Allocator.Cold
    then incr edit_misses
  done;
  if !edit_misses = 0 then Alcotest.fail "no seeded edit missed the skeleton"

(* --- the build's emission buffer -------------------------------------- *)

(* A multi-round allocation spelled out round by round, so each round's
   context can be inspected: the emission buffer holds every pair the
   round's build emitted, and later rounds' builds write into the chunks
   an earlier round made instead of allocating them again. *)
let test_emission_buffer_kept () =
  let cfg = Fuzz.Gen.generate ~config:Fuzz.Gen.high_pressure 7 in
  let chunks ctx =
    List.filter
      (fun c -> Array.length c > 0)
      (Array.to_list
         ctx.Remat.Context.build_scratch.Remat.Interference.emitted)
  in
  let mode = Remat.Mode.Briggs_remat in
  let prev = ref [] and reused = ref 0 in
  ignore
    (Testutil.allocate_by_rounds ~mode ~machine:tiny
       ~on_round:(fun ctx ->
         let cs = chunks ctx in
         let round = ctx.Remat.Context.round in
         let pairs =
           Remat.Stats.counter_in_round ctx.Remat.Context.stats ~round
             Remat.Stats.Build_pairs
         in
         let cap = List.fold_left (fun a c -> a + Array.length c) 0 cs in
         if pairs = 0 || cap < pairs then
           Alcotest.failf "round %d: %d pairs, buffer of %d" round pairs cap;
         if round > 1 then begin
           List.iteri
             (fun i c ->
               if List.nth cs i != c then
                 Alcotest.failf "round %d: chunk %d reallocated" round i)
             !prev;
           incr reused
         end;
         prev := cs)
       cfg);
  if !reused = 0 then Alcotest.fail "allocation did not spill"

let qcheck_cases =
  List.map
    (fun c -> QCheck_alcotest.to_alcotest (roundtrip_prop c))
    gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (liveness_flat_prop c))
      gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (renumber_ab_prop c))
      gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (graph_boundary_prop c))
      gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (scratch_reuse_prop c))
      gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (merge_agree_prop c))
      gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (splice_ab_prop c))
      gen_configs
  @ List.map
      (fun c -> QCheck_alcotest.to_alcotest (incremental_edit_prop c))
      gen_configs

let () =
  Alcotest.run "flat"
    [
      ( "directed",
        [
          Alcotest.test_case "every opcode round-trips" `Quick
            test_every_opcode;
          Alcotest.test_case "empty blocks round-trip" `Quick test_empty_blocks;
          Alcotest.test_case "special float immediates" `Quick
            test_float_immediates;
          Alcotest.test_case "supply watermark preserved" `Quick
            test_supply_preserved;
          Alcotest.test_case "CSR edges match Cfg edges" `Quick
            test_edges_match;
          Alcotest.test_case "splice identity" `Quick test_splice_identity;
          Alcotest.test_case "of_routine rejects SSA" `Quick test_rejects_ssa;
          Alcotest.test_case
            "arena build ≡ structured reference on the 33k-node chain" `Quick
            test_arena_build_large_chain;
        ] );
      ( "instr-equal",
        [
          Alcotest.test_case "directed equal/hash pairs" `Quick
            test_instr_equal;
          Alcotest.test_case "hash spreads immediates" `Quick
            test_hash_spreads;
        ] );
      ( "context",
        [
          Alcotest.test_case "emission buffer kept across rounds"
            `Quick test_emission_buffer_kept;
          Alcotest.test_case "edits reuse a snapshot across spill rounds"
            `Quick test_incremental_spill_rounds;
          Alcotest.test_case "cold snapshot is round 1's front half" `Quick
            test_snapshot_is_cold_front_half;
          Alcotest.test_case "loop schemes take no snapshot" `Quick
            test_loop_schemes_take_no_snapshot;
          Alcotest.test_case "skeleton miss continues cold" `Quick
            test_skeleton_miss_continues_cold;
        ] );
      ("roundtrip", qcheck_cases);
    ]
