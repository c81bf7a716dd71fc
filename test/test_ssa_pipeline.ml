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
  Remat.Ssa_alloc.run ~mode ~machine ~max_rounds:64
    ~stats:(Remat.Stats.create ())
    (Cfg.split_critical_edges cfg)

(* The full per-config obligation, one generated routine at a time:
   allocation succeeds, output is a valid φ-free routine within k, the
   static verifier accepts it (or stays agnostic), the simulator agrees
   with the source, and the coloring met the chordal bound. *)
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
  (* Static verification: sound or agnostic, never a rejection. *)
  (match
     Verify.Check.routine ~input:cfg ~output:out
       ~k_int:machine.Remat.Machine.k_int
       ~k_float:machine.Remat.Machine.k_float
   with
  | Ok _ -> ()
  | Error es when List.for_all Verify.Error.is_unsupported es -> ()
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
    ]
