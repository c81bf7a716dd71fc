(* The benchmark harness: regenerates every table and figure from the
   paper's evaluation (§5) plus the §6 splitting ablation, and runs
   Bechamel micro-benchmarks of the allocator itself (one group per
   table/figure).

   Usage:
     bench/main.exe                run everything
     bench/main.exe table1         spill-cost comparison (Table 1)
     bench/main.exe table2         per-phase allocation times (Table 2)
     bench/main.exe scale          coloring-core scaling, old vs new
     bench/main.exe fig1|fig2|fig3|fig4
     bench/main.exe ablation       splitting schemes of section 6
     bench/main.exe bechamel       micro-benchmarks only

   Flags (anywhere on the command line):
     --repeats N   timing repetitions per table2 measurement (default 10)
     --jobs N      worker domains for table2 columns (default 1; parallel
                   columns contend for cores, so use N > 1 for counter
                   regeneration and CI smoke runs, not wall-clock numbers) *)

let std = Format.std_formatter

let table1 () =
  Format.fprintf std
    "=== Table 1: Effects of Rematerialization ===@.\
     (cycles of spill code = dynamic cycles on the standard 16+16 machine@.\
    \ minus cycles on the huge 128+128 machine; columns show the percentage@.\
    \ of the Optimistic cost saved per instruction category)@.@.";
  let rows = Suite.Report.table1 () in
  Suite.Report.pp_table1 std rows;
  Format.fprintf std "@."

let table2 ~repeats ~jobs () =
  Format.fprintf std
    "=== Table 2: Allocation Times in Seconds ===@.\
     (Old = Chaitin-style rematerialization, New = this paper; averages@.\
    \ over %d runs; rows are round:phase as in the paper)@.@."
    repeats;
  let cols =
    Suite.Report.table2 ~repeats ~jobs [ "repvid"; "tomcatv"; "twldrv" ]
  in
  Suite.Report.pp_table2 std cols;
  let json_path = "BENCH_alloc.json" in
  let oc = open_out json_path in
  output_string oc (Suite.Report.table2_json cols);
  output_char oc '\n';
  close_out oc;
  Format.fprintf std "@.(per-phase timings and counters written to %s)@.@."
    json_path

let scale ~repeats () =
  let code =
    Scale_bench.Scale.run ~repeats ~out:"BENCH_scale.json" std
  in
  if code <> 0 then exit code

let ablation () =
  Format.fprintf std
    "=== Section 6 ablation: splitting schemes ===@.\
     (spill cycles per allocator variant on the standard machine;@.\
    \ briggs-phi-splits splits at every phi-node as sketched in section 6)@.@.";
  let rows = Suite.Report.ablation () in
  Suite.Report.pp_ablation std rows;
  Format.fprintf std "@."

let baseline () =
  Format.fprintf std
    "=== Local-allocator baseline (the §5.4 reference point) ===@.\
     (total dynamic cycles on the standard machine: the fast local@.\
    \ allocator of non-optimizing compilers vs the global allocators)@.@.";
  Format.fprintf std "%-12s %12s %12s %12s %12s@." "routine" "local"
    "no-remat" "chaitin" "briggs";
  Format.fprintf std "%s@." (String.make 64 '-');
  List.iter
    (fun k ->
      let cfg = Suite.Kernels.cfg_of ~optimize:true k in
      let cycles c = Sim.Counts.cycles (Sim.Interp.run c).Sim.Interp.counts in
      let local =
        cycles (Remat.Local_allocator.run cfg).Remat.Local_allocator.cfg
      in
      let global mode =
        cycles
          (Remat.Allocator.allocate ~mode ~machine:Remat.Machine.standard cfg)
            .Remat.Allocator.cfg
      in
      Format.fprintf std "%-12s %12d %12d %12d %12d@." k.Suite.Kernels.name
        local
        (global Remat.Mode.No_remat)
        (global Remat.Mode.Chaitin_remat)
        (global Remat.Mode.Briggs_remat))
    Suite.Kernels.all;
  Format.fprintf std "@."

(* --- Bechamel micro-benchmarks: one group per table/figure --- *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let fig1_cfg = Suite.Figures.fig1_source () in
  let kernel name = Suite.Kernels.cfg_of (Suite.Kernels.find name) in
  let tomcatv = kernel "tomcatv" in
  let twldrv = kernel "twldrv" in
  let alloc mode machine cfg () =
    ignore (Remat.Allocator.allocate ~mode ~machine cfg)
  in
  let tests =
    [
      (* Table 1 engine: both allocators end to end. *)
      Test.make ~name:"table1/chaitin-tomcatv"
        (Staged.stage
           (alloc Remat.Mode.Chaitin_remat Remat.Machine.standard tomcatv));
      Test.make ~name:"table1/briggs-tomcatv"
        (Staged.stage
           (alloc Remat.Mode.Briggs_remat Remat.Machine.standard tomcatv));
      (* Table 2 subject: the largest routine. *)
      Test.make ~name:"table2/briggs-twldrv"
        (Staged.stage
           (alloc Remat.Mode.Briggs_remat Remat.Machine.standard twldrv));
      (* Figure 3 engine: renumber with tag propagation. *)
      Test.make ~name:"fig3/renumber-briggs"
        (Staged.stage (fun () ->
             let fl =
               Iloc.Flat.of_routine (Iloc.Cfg.split_critical_edges fig1_cfg)
             in
             ignore
               (Remat.Renumber.run_flat Remat.Mode.Briggs_remat
                  ~dom:(Dataflow.Dominance.compute_flat fl) fl)));
      (* Figure 4 engine: the interpreter. *)
      Test.make ~name:"fig4/interp-tomcatv"
        (Staged.stage (fun () -> ignore (Sim.Interp.run tomcatv)));
      (* Ablation engine: the eager splitting variant. *)
      Test.make ~name:"ablation/phi-splits-tomcatv"
        (Staged.stage
           (alloc Remat.Mode.Briggs_remat_phi_splits Remat.Machine.standard
              tomcatv));
      ]
  in
  let test = Test.make_grouped ~name:"remat" ~fmt:"%s %s" tests in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
    in
    let raw_results = Benchmark.all cfg instances test in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    Analyze.merge ols instances results
  in
  Format.fprintf std "=== Bechamel micro-benchmarks ===@.";
  let results = benchmark () in
  (match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> Format.fprintf std "  (no results)@."
  | Some tbl ->
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Format.fprintf std "  %-40s %12.0f ns/run@." name est
          | _ -> Format.fprintf std "  %-40s (no estimate)@." name)
        (List.sort (fun (a, _) (b, _) -> String.compare a b) rows));
  Format.fprintf std "@."

let figures which =
  match which with
  | `F1 -> Suite.Figures.fig1 std
  | `F2 -> Suite.Figures.fig2 std
  | `F3 -> Suite.Figures.fig3 std
  | `F4 -> Suite.Figures.fig4 std

let all ~repeats ~jobs () =
  figures `F1;
  figures `F2;
  figures `F3;
  figures `F4;
  table1 ();
  table2 ~repeats ~jobs ();
  scale ~repeats:3 ();
  ablation ();
  baseline ();
  bechamel ()

(* Tiny hand parser: targets and [--flag N] pairs may be interleaved. *)
let () =
  let repeats = ref 10 and jobs = ref 1 in
  let targets = ref [] in
  let int_arg flag = function
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> n
        | _ ->
            Format.eprintf "%s wants a positive integer, got %S@." flag v;
            exit 2)
    | None ->
        Format.eprintf "%s wants an argument@." flag;
        exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--repeats" :: rest ->
        let v, rest =
          match rest with v :: rest -> (Some v, rest) | [] -> (None, [])
        in
        repeats := int_arg "--repeats" v;
        parse rest
    | "--jobs" :: rest ->
        let v, rest =
          match rest with v :: rest -> (Some v, rest) | [] -> (None, [])
        in
        jobs := int_arg "--jobs" v;
        parse rest
    | t :: rest ->
        targets := t :: !targets;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let repeats = !repeats and jobs = !jobs in
  match List.rev !targets with
  | [] -> all ~repeats ~jobs ()
  | targets ->
      List.iter
        (function
          | "table1" -> table1 ()
          | "table2" -> table2 ~repeats ~jobs ()
          | "fig1" -> figures `F1
          | "fig2" -> figures `F2
          | "fig3" -> figures `F3
          | "fig4" -> figures `F4
          | "scale" -> scale ~repeats:(min repeats 3) ()
          | "ablation" -> ablation ()
          | "baseline" -> baseline ()
          | "bechamel" -> bechamel ()
          | other ->
              Format.eprintf
                "unknown target %S (want table1 table2 scale fig1..fig4 \
                 ablation bechamel)@."
                other;
              exit 2)
        targets
