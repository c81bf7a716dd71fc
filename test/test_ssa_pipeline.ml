(* Tests for the decoupled SSA allocation pipeline (lib/core/ssa_alloc):
   per-fuzz-config QCheck properties over generated routines, and the
   chordality invariant the greedy dominator-preorder coloring must meet
   — never more colors than MaxLive, never more than the machine's k. *)

module Cfg = Iloc.Cfg
module Reg = Iloc.Reg

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let ssa_modes = [ Remat.Mode.Ssa_remat; Remat.Mode.Ssa_no_remat ]

let ssa_configs =
  List.concat_map
    (fun optimize ->
      List.concat_map
        (fun machine ->
          List.map
            (fun mode -> { Fuzz.Oracle.optimize; mode; machine })
            ssa_modes)
        [ Remat.Machine.standard; Fuzz.Oracle.tight ])
    [ false; true ]

(* Direct access to the pipeline's result record — the chordality bound
   is not observable through [Allocator.allocate]. *)
let ssa_run ~mode ~(machine : Remat.Machine.t) cfg =
  let f = Remat.Allocator.front_half cfg in
  Remat.Ssa_alloc.run ~mode ~machine ~max_rounds:64
    ~stats:f.Remat.Allocator.stats ~dom:f.Remat.Allocator.dom
    ~loops:f.Remat.Allocator.loops f.Remat.Allocator.flat

(* The full per-config obligation, one generated routine at a time:
   allocation succeeds, output is a valid φ-free routine within k, the
   static verifier proves it, the simulator agrees with the source, and
   the coloring met the chordal bound. *)
let config_property (c : Fuzz.Oracle.config) cfg =
  let cfg = if c.optimize then Opt.Pipeline.run cfg else cfg in
  let machine = c.machine in
  let res =
    Remat.Allocator.allocate ~mode:c.mode ~machine ~verify:false cfg
  in
  let out = res.Remat.Allocator.cfg in
  (* Valid, φ-free, within k. *)
  (match Iloc.Validate.routine out with
  | Ok () -> ()
  | Error es ->
      QCheck.Test.fail_reportf "invalid output: %s"
        (String.concat "; " (List.map Iloc.Validate.error_to_string es)));
  if Cfg.in_ssa out then QCheck.Test.fail_report "output still in SSA form";
  Reg.Set.iter
    (fun r ->
      let k =
        if Reg.is_float r then machine.Remat.Machine.k_float
        else machine.Remat.Machine.k_int
      in
      if Reg.id r >= k then
        QCheck.Test.fail_reportf "register %s beyond k=%d" (Reg.to_string r) k)
    (Cfg.all_regs out);
  (* Static verification: every allocation is proved. *)
  (match
     Verify.Check.routine ~input:cfg ~output:out
       ~k_int:machine.Remat.Machine.k_int
       ~k_float:machine.Remat.Machine.k_float
   with
  | Ok _ -> ()
  | Error es ->
      QCheck.Test.fail_reportf "static rejection: %s"
        (String.concat "; " (List.map Verify.Error.to_string es)));
  (* Dynamic equivalence. *)
  if
    not
      (Sim.Interp.outcome_equal (Sim.Interp.run cfg) (Sim.Interp.run out))
  then QCheck.Test.fail_report "simulated outcome differs from the source";
  (* Chordality: the greedy coloring never needs more than MaxLive
     colors per class, and post-spilling MaxLive fits the machine. *)
  let r = ssa_run ~mode:c.mode ~machine cfg in
  if r.Remat.Ssa_alloc.max_colors_int > r.Remat.Ssa_alloc.max_live_int then
    QCheck.Test.fail_reportf "int colors %d exceed MaxLive %d"
      r.Remat.Ssa_alloc.max_colors_int r.Remat.Ssa_alloc.max_live_int;
  if r.Remat.Ssa_alloc.max_colors_float > r.Remat.Ssa_alloc.max_live_float
  then
    QCheck.Test.fail_reportf "float colors %d exceed MaxLive %d"
      r.Remat.Ssa_alloc.max_colors_float r.Remat.Ssa_alloc.max_live_float;
  if r.Remat.Ssa_alloc.max_live_int > machine.Remat.Machine.k_int then
    QCheck.Test.fail_reportf "int MaxLive %d exceeds k=%d"
      r.Remat.Ssa_alloc.max_live_int machine.Remat.Machine.k_int;
  if r.Remat.Ssa_alloc.max_live_float > machine.Remat.Machine.k_float then
    QCheck.Test.fail_reportf "float MaxLive %d exceeds k=%d"
      r.Remat.Ssa_alloc.max_live_float machine.Remat.Machine.k_float;
  true

let per_config_props =
  List.map
    (fun (c : Fuzz.Oracle.config) ->
      QCheck.Test.make ~count:40
        ~name:
          (Printf.sprintf "SSA pipeline obligations hold under %s"
             (Fuzz.Oracle.config_name c))
        Testutil.Gen_prog.arbitrary_cfg (config_property c))
    ssa_configs

(* --- spill selection against its reference --- *)

module Reg_index = Dataflow.Reg_index

let selector_machines =
  [
    Remat.Machine.standard;
    Remat.Machine.make ~name:"8+8" ~k_int:8 ~k_float:8;
    Fuzz.Oracle.tight;
  ]

(* The first spill round's inputs as [Ssa_alloc.run] builds them — SSA
   construction, loop weights, remat tags (or none), liveness — handed
   to both the arena selector (the SSA routine encoded with its φs
   beside it) and the [Reg.Set] reference (the structured φ-aware
   liveness walk), on
   each machine, with every value spillable and with every third one
   pinned (which is what drives points into the stuck path).  Costs must
   be bitwise equal, and the chosen sets and the first stuck block the
   same; a sweep that chooses nothing must report the structured
   MaxLive walk's peaks.  Later rounds select over spill-rewritten code; the byte
   identity of whole allocations (goldens, the race pin, test_text's SSA
   digest) covers them. *)
let selector_agrees cfg =
  let cfg0 = Cfg.split_critical_edges cfg in
  let dom = Dataflow.Dominance.compute cfg0 in
  let loops = Dataflow.Loops.compute cfg0 dom in
  let ssa = Ssa.Construct.run cfg0 in
  let vals = Ssa.Values.analyze ssa in
  let remat_tags = Reg.Tbl.create 64 in
  Array.iteri
    (fun i t ->
      if Remat.Tag.is_inst t then
        Reg.Tbl.replace remat_tags (Ssa.Values.reg vals i) t)
    (Remat.Remat_analysis.run ssa vals);
  let ref_live = Reference.Liveness.compute_ssa ssa in
  let max_live_int, max_live_float =
    let mi, mf = Reference.Liveness.max_live_ssa ssa ref_live in
    (Array.fold_left max 0 mi, Array.fold_left max 0 mf)
  in
  let fl, phis = Testutil.ssa_arena ssa in
  let live =
    Dataflow.Liveness.compute fl ~order:(Dataflow.Order.postorder_flat fl)
      ~phis
  in
  let regs = live.Dataflow.Liveness.regs in
  let nr = Reg_index.count regs in
  let names set = List.map Reg.to_string (Reg.Set.elements set) in
  List.iter
    (fun tags ->
      let tag_of r =
        Option.value (Reg.Tbl.find_opt tags r) ~default:Remat.Tag.Bottom
      in
      let ref_cost = Reference.Ssa_select.cost_table ssa loops tag_of in
      let cost = Remat.Ssa_alloc.cost_table fl phis loops tag_of live in
      for i = 0 to nr - 1 do
        let r = Reg_index.reg regs i in
        if not (Float.equal cost.(i) (ref_cost r)) then
          Alcotest.failf "%s: cost of %s is %h, reference %h" cfg.Cfg.name
            (Reg.to_string r) cost.(i) (ref_cost r)
      done;
      List.iter
        (fun (machine : Remat.Machine.t) ->
          let k = Remat.Machine.k_for machine in
          List.iter
            (fun pinned ->
              let spillable r = not (pinned r) in
              let want, want_stuck =
                Reference.Ssa_select.select ssa ref_live ~k ~cost:ref_cost
                  ~spillable
              in
              let sel =
                Remat.Ssa_alloc.select fl phis live ~k ~cost
                  ~spillable:
                    (Array.init nr (fun i -> spillable (Reg_index.reg regs i)))
              in
              let got = sel.Remat.Ssa_alloc.chosen in
              let got_stuck = sel.Remat.Ssa_alloc.stuck in
              let what =
                Printf.sprintf "%s on %s, %d tags" cfg.Cfg.name
                  machine.Remat.Machine.name (Reg.Tbl.length tags)
              in
              check
                Alcotest.(list string)
                (what ^ ": chosen") (names want) (names got);
              check
                Alcotest.(option string)
                (what ^ ": stuck") want_stuck got_stuck;
              (* A sweep that chooses nothing has met MaxLive. *)
              if Reg.Set.is_empty got then begin
                check Alcotest.int (what ^ ": MaxLive int") max_live_int
                  sel.Remat.Ssa_alloc.pressure_int;
                check Alcotest.int (what ^ ": MaxLive float") max_live_float
                  sel.Remat.Ssa_alloc.pressure_float
              end)
            [ (fun _ -> false); (fun r -> Reg.id r mod 3 = 0) ])
        selector_machines)
    [ Reg.Tbl.create 1; remat_tags ]

let selector_tests =
  [
    tc "every kernel, plain and optimized, selects as the reference"
      (fun () ->
        List.iter
          (fun k ->
            List.iter
              (fun optimize ->
                selector_agrees (Suite.Kernels.cfg_of ~optimize k))
              [ false; true ])
          Suite.Kernels.all);
  ]

let selector_props =
  List.concat_map
    (fun (gname, config) ->
      List.map
        (fun optimize ->
          QCheck.Test.make ~count:30
            ~name:
              (Printf.sprintf "%s%s routines select as the reference" gname
                 (if optimize then " optimized" else ""))
            QCheck.(make ~print:string_of_int Gen.(int_bound 0x3FFFFFFF))
            (fun seed ->
              let cfg = Fuzz.Gen.generate ~config seed in
              selector_agrees (if optimize then Opt.Pipeline.run cfg else cfg);
              true))
        [ false; true ])
    [ ("default", Fuzz.Gen.default); ("high-pressure", Fuzz.Gen.high_pressure) ]

(* --- directed pipeline checks --- *)

let directed =
  [
    tc "fixtures allocate, verify and agree under both SSA modes" (fun () ->
        List.iter
          (fun (name, cfg) ->
            List.iter
              (fun mode ->
                let res =
                  Remat.Allocator.allocate ~mode ~verify:true cfg
                in
                let out = res.Remat.Allocator.cfg in
                if
                  not
                    (Sim.Interp.outcome_equal (Sim.Interp.run cfg)
                       (Sim.Interp.run out))
                then
                  Alcotest.failf "%s under %s: outcome differs" name
                    (Remat.Mode.to_string mode))
              ssa_modes)
          (Testutil.all_fixed ()));
    tc "rounds converge and report spills on a pressured fixture" (fun () ->
        let cfg = Testutil.high_pressure () in
        let r =
          ssa_run ~mode:Remat.Mode.Ssa_remat ~machine:Fuzz.Oracle.tight cfg
        in
        check Alcotest.bool "at least one spill round" true
          (r.Remat.Ssa_alloc.rounds > 1);
        check Alcotest.bool "something spilled" true
          (r.Remat.Ssa_alloc.spilled_memory + r.Remat.Ssa_alloc.spilled_remat
          > 0);
        check Alcotest.bool "MaxLive within k" true
          (r.Remat.Ssa_alloc.max_live_int <= 6
          && r.Remat.Ssa_alloc.max_live_float <= 6));
    tc "ssa-no-remat never rematerializes" (fun () ->
        let cfg = Testutil.high_pressure () in
        let r =
          ssa_run ~mode:Remat.Mode.Ssa_no_remat ~machine:Fuzz.Oracle.tight cfg
        in
        check Alcotest.int "remat spills" 0 r.Remat.Ssa_alloc.spilled_remat);
    tc "irreducible pressure names the stuck block" (fun () ->
        (* One indexed store reads three integer registers at once, one
           more than the machine has: spilling the operands only moves
           them into unspillable reload temporaries, so the selector
           runs out of candidates at that point and reports it. *)
        let b = Iloc.Builder.create "stuck" in
        let v = Iloc.Builder.ireg b and base = Iloc.Builder.ireg b in
        let idx = Iloc.Builder.ireg b in
        Iloc.Builder.block b "entry"
          Iloc.Instr.
            [ ldi v 1; ldi base 64; ldi idx 8; storex ~value:v ~base ~idx ]
          ~term:(Iloc.Instr.ret None);
        let cfg = Iloc.Builder.finish b in
        let machine = Remat.Machine.make ~name:"2+2" ~k_int:2 ~k_float:2 in
        List.iter
          (fun mode ->
            match Remat.Allocator.allocate ~mode ~machine cfg with
            | _ ->
                Alcotest.failf "%s: allocated on 2+2"
                  (Remat.Mode.to_string mode)
            | exception Remat.Allocator.Allocation_error msg ->
                check Alcotest.string
                  (Remat.Mode.to_string mode)
                  "stuck: register pressure irreducible at block entry (k=2/2)"
                  msg)
          ssa_modes);
    tc "incremental allocation declines SSA modes" (fun () ->
        (* The SSA pipeline builds no interference graph: an allocation
           that would feed edits returns no snapshot, and its output is
           the plain allocation's. *)
        let cfg = Testutil.counted_loop () in
        List.iter
          (fun mode ->
            let res, snap = Remat.Allocator.allocate_snapshot ~mode cfg in
            check Alcotest.bool
              (Remat.Mode.to_string mode ^ ": no snapshot")
              true (Option.is_none snap);
            check Alcotest.string
              (Remat.Mode.to_string mode ^ ": plain output")
              (Iloc.Cfg.to_string (Remat.Allocator.allocate ~mode cfg).cfg)
              (Iloc.Cfg.to_string res.Remat.Allocator.cfg))
          Remat.Mode.[ Ssa_remat; Ssa_no_remat ]);
  ]

let () =
  Alcotest.run "ssa-pipeline"
    [
      ("directed", directed);
      ("properties", List.map QCheck_alcotest.to_alcotest per_config_props);
      ("selector", selector_tests);
      ( "selector-properties",
        List.map QCheck_alcotest.to_alcotest selector_props );
    ]
