module Counts = Sim.Counts
module Instr = Iloc.Instr
module Mode = Remat.Mode
module Machine = Remat.Machine

type measurement = {
  kernel : Kernels.kernel;
  mode : Remat.Mode.t;
  counts : Sim.Counts.t;
  baseline : Sim.Counts.t;
  spill_cycles : int;
  result : Remat.Allocator.result;
}

let run_counts cfg = (Sim.Interp.run cfg).Sim.Interp.counts

let measure mode kernel =
  let cfg = Kernels.cfg_of ~optimize:true kernel in
  let result = Remat.Allocator.allocate ~mode ~machine:Machine.standard cfg in
  let huge = Remat.Allocator.allocate ~mode ~machine:Machine.huge cfg in
  let counts = run_counts result.Remat.Allocator.cfg in
  let baseline = run_counts huge.Remat.Allocator.cfg in
  let spill_cycles = Counts.cycles_signed (Counts.sub counts baseline) in
  { kernel; mode; counts; baseline; spill_cycles; result }

type table1_row = {
  t1_kernel : Kernels.kernel;
  optimistic : int;
  remat : int;
  contributions : (Iloc.Instr.category * float) list;
  total_pct : float;
}

let category_cycle_weight = function
  | Instr.Cat_load | Instr.Cat_store -> 2
  | Instr.Cat_copy | Instr.Cat_ldi | Instr.Cat_addi | Instr.Cat_other -> 1

let table1_row kernel =
  let opt = measure Mode.Chaitin_remat kernel in
  let rem = measure Mode.Briggs_remat kernel in
  let optimistic = opt.spill_cycles and remat = rem.spill_cycles in
  (* Contribution of category c: cycles attributable to c in the
     optimistic allocation minus the same in the rematerializing one, as
     a percentage of the optimistic spill cost's magnitude.  Spill cost
     is a difference of two allocations and can be negative; dividing
     by its magnitude keeps a positive percentage meaning "Remat saved
     cycles". *)
  let base = abs optimistic in
  let categories =
    [ Instr.Cat_load; Instr.Cat_store; Instr.Cat_copy; Instr.Cat_ldi;
      Instr.Cat_addi; Instr.Cat_other ]
  in
  let contributions =
    List.map
      (fun c ->
        let w = category_cycle_weight c in
        let opt_c =
          w * (Counts.get opt.counts c - Counts.get opt.baseline c)
        in
        let rem_c =
          w * (Counts.get rem.counts c - Counts.get rem.baseline c)
        in
        let saved = opt_c - rem_c in
        let pct =
          if base = 0 then 0.
          else 100. *. float_of_int saved /. float_of_int base
        in
        (c, pct))
      categories
  in
  let total_pct =
    if base = 0 then 0.
    else 100. *. float_of_int (optimistic - remat) /. float_of_int base
  in
  { t1_kernel = kernel; optimistic; remat; contributions; total_pct }

(* Spill cost below which a row is noise under both allocators. *)
let min_cycles = 8

let table1 () =
  Kernels.all
  |> List.map table1_row
  |> List.filter (fun r ->
         r.optimistic <> r.remat
         && (abs r.optimistic >= min_cycles || abs r.remat >= min_cycles))

let pp_pct ppf v =
  (* The paper rounds to integers, prints -0 for insignificant losses and
     blank for exact zero. *)
  if Float.abs v < 0.005 then Format.fprintf ppf "%6s" ""
  else if v > -0.5 && v < 0. then Format.fprintf ppf "%6s" "-0"
  else Format.fprintf ppf "%6.0f" v

let pp_table1 ppf rows =
  Format.fprintf ppf
    "%-10s %-10s | %12s %12s | %6s %6s %6s %6s %6s | %6s@." "program"
    "routine" "Optimistic" "Remat" "load" "store" "copy" "ldi" "addi" "total";
  Format.fprintf ppf "%s@." (String.make 92 '-');
  List.iter
    (fun r ->
      let find c = List.assoc c r.contributions in
      Format.fprintf ppf "%-10s %-10s | %12d %12d | %a %a %a %a %a | %a@."
        r.t1_kernel.Kernels.program r.t1_kernel.Kernels.name r.optimistic
        r.remat pp_pct (find Instr.Cat_load) pp_pct (find Instr.Cat_store)
        pp_pct (find Instr.Cat_copy) pp_pct (find Instr.Cat_ldi) pp_pct
        (find Instr.Cat_addi) pp_pct r.total_pct)
    rows;
  let improved = List.length (List.filter (fun r -> r.remat < r.optimistic) rows)
  and degraded = List.length (List.filter (fun r -> r.remat > r.optimistic) rows) in
  Format.fprintf ppf "%s@." (String.make 92 '-');
  Format.fprintf ppf
    "improvements: %d   degradations: %d   (of %d kernels measured)@."
    improved degraded (List.length Kernels.all)

type table2_column = {
  t2_kernel : Kernels.kernel;
  old_rows : (int * Remat.Stats.phase * float * float * float) list;
      (** (round, phase, seconds, minor words, major words), averaged *)
  new_rows : (int * Remat.Stats.phase * float * float * float) list;
  old_counters : (int * Remat.Stats.counter * int) list;
  new_counters : (int * Remat.Stats.counter * int) list;
  old_total : float;
  new_total : float;
}

let averaged_phases ~repeats mode cfg =
  (* Average per-(round, phase) wall time and heap allocation over
     [repeats] runs.  The event counters are deterministic, so the last
     run's suffice. *)
  let acc = Hashtbl.create 32 in
  let order = ref [] in
  let counters = ref [] in
  for _ = 1 to repeats do
    let res = Remat.Allocator.allocate ~mode ~machine:Machine.standard cfg in
    counters := Remat.Stats.counters res.Remat.Allocator.stats;
    List.iter
      (fun (round, phase, s, w, mj) ->
        let key = (round, phase) in
        match Hashtbl.find_opt acc key with
        | Some (t, tw, tm) ->
            Hashtbl.replace acc key (t +. s, tw +. w, tm +. mj)
        | None ->
            Hashtbl.add acc key (s, w, mj);
            order := key :: !order)
      (Remat.Stats.by_phase res.Remat.Allocator.stats)
  done;
  let r = float_of_int repeats in
  ( List.rev_map
      (fun (round, phase) ->
        let s, w, mj = Hashtbl.find acc (round, phase) in
        (round, phase, s /. r, w /. r, mj /. r))
      !order,
    !counters )

let table2 ?(repeats = 10) ?(jobs = 1) names =
  let column name =
    let kernel = Kernels.find name in
    let cfg = Kernels.cfg_of ~optimize:true kernel in
    let old_rows, old_counters =
      averaged_phases ~repeats Mode.Chaitin_remat cfg
    in
    let new_rows, new_counters =
      averaged_phases ~repeats Mode.Briggs_remat cfg
    in
    let total rows =
      List.fold_left (fun a (_, _, s, _, _) -> a +. s) 0. rows
    in
    {
      t2_kernel = kernel;
      old_rows;
      new_rows;
      old_counters;
      new_counters;
      old_total = total old_rows;
      new_total = total new_rows;
    }
  in
  (* One column per kernel; a column compiles and allocates only state it
     creates, so columns parallelize safely.  Note that concurrent
     columns contend for cores: use [jobs] for counter regeneration and
     smoke runs, not for comparable wall-clock numbers. *)
  Array.to_list (Pool.run ~jobs column (Array.of_list names))

let pp_table2 ppf cols =
  Format.fprintf ppf "%-14s" "Phase";
  List.iter
    (fun c ->
      Format.fprintf ppf " | %10s %10s"
        (c.t2_kernel.Kernels.name ^ "/Old")
        (c.t2_kernel.Kernels.name ^ "/New"))
    cols;
  Format.fprintf ppf "@.%s@."
    (String.make (14 + (25 * List.length cols)) '-');
  (* Rows: union of (round, phase) keys across all columns, in the order
     the longest column executed them. *)
  let keys =
    List.fold_left
      (fun acc c ->
        let ks =
          List.sort_uniq compare
            (List.map (fun (r, p, _, _, _) -> (r, p))
               (c.old_rows @ c.new_rows))
        in
        if List.length ks > List.length acc then ks else acc)
      [] cols
  in
  let phase_section ~fmt ~suffix project =
    List.iter
      (fun (round, phase) ->
        Format.fprintf ppf "%-14s"
          (Printf.sprintf "%d:%s%s" round
             (Remat.Stats.phase_to_string phase)
             suffix);
        List.iter
          (fun c ->
            let get rows =
              List.find_map
                (fun (r, p, s, w, mj) ->
                  if (r, p) = (round, phase) then Some (project s w mj)
                  else None)
                rows
            in
            let cell v =
              match v with
              | Some x -> Printf.sprintf fmt x
              | None -> Printf.sprintf "%10s" ""
            in
            Format.fprintf ppf " | %s %s" (cell (get c.old_rows))
              (cell (get c.new_rows)))
          cols;
        Format.fprintf ppf "@.")
      keys
  in
  phase_section ~fmt:"%10.5f" ~suffix:"" (fun s _ _ -> s);
  Format.fprintf ppf "%-14s" "total";
  List.iter
    (fun c ->
      Format.fprintf ppf " | %10.5f %10.5f" c.old_total c.new_total)
    cols;
  Format.fprintf ppf "@.";
  (* Same layout again for minor-heap allocation, in kwords: a phase
     whose words column collapses after an optimization proves the win
     came from allocation, not just constant factors.  And once more for
     major-heap words — the flat phases move their footprint here, into
     a few large arena buffers. *)
  Format.fprintf ppf "%s@." (String.make (14 + (25 * List.length cols)) '-');
  phase_section ~fmt:"%10.1f" ~suffix:"/kw" (fun _ w _ -> w /. 1000.);
  Format.fprintf ppf "%s@." (String.make (14 + (25 * List.length cols)) '-');
  phase_section ~fmt:"%10.1f" ~suffix:"/kW" (fun _ _ mj -> mj /. 1000.);
  (* Event counters, same column layout.  full-builds stays at 1 per
     spill round: the coalescer updates the graph in place. *)
  let counter_keys =
    List.fold_left
      (fun acc c ->
        let ks =
          List.sort_uniq compare
            (List.map (fun (r, k, _) -> (r, k))
               (c.old_counters @ c.new_counters))
        in
        if List.length ks > List.length acc then ks else acc)
      [] cols
  in
  if counter_keys <> [] then begin
    Format.fprintf ppf "%s@."
      (String.make (14 + (25 * List.length cols)) '-');
    List.iter
      (fun (round, key) ->
        Format.fprintf ppf "%-20s"
          (Printf.sprintf "%d:%s" round (Remat.Stats.counter_to_string key));
        List.iter
          (fun c ->
            let get counters =
              List.find_map
                (fun (r, k, n) ->
                  if (r, k) = (round, key) then Some n else None)
                counters
            in
            let cell = function
              | Some n -> Printf.sprintf "%7d" n
              | None -> Printf.sprintf "%7s" ""
            in
            Format.fprintf ppf " | %s %s"
              (cell (get c.old_counters))
              (cell (get c.new_counters)))
          cols;
        Format.fprintf ppf "@.")
      counter_keys
  end

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let table2_json cols =
  let b = Buffer.create 1024 in
  let side rows counters total =
    Buffer.add_string b "{\"phases\":[";
    List.iteri
      (fun i (round, phase, s, w, mj) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "{\"round\":%d,\"phase\":\"%s\",\"seconds\":%.9f,\"minor_words\":%.0f,\"major_words\":%.0f}"
             round
             (Remat.Stats.phase_to_string phase)
             s w mj))
      rows;
    Buffer.add_string b "],\"counters\":[";
    List.iteri
      (fun i (round, key, n) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"round\":%d,\"counter\":\"%s\",\"count\":%d}"
             round
             (Remat.Stats.counter_to_string key)
             n))
      counters;
    Buffer.add_string b (Printf.sprintf "],\"total_seconds\":%.9f}" total)
  in
  Buffer.add_string b "{\"bench\":\"alloc\",\"kernels\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"kernel\":%s,\"old\":"
           (json_string c.t2_kernel.Kernels.name));
      side c.old_rows c.old_counters c.old_total;
      Buffer.add_string b ",\"new\":";
      side c.new_rows c.new_counters c.new_total;
      Buffer.add_char b '}')
    cols;
  Buffer.add_string b "]}";
  Buffer.contents b

type ablation_cell = { ab_mode : Remat.Mode.t; ab_cycles : int; ab_splits : int }
type ablation_row = { ab_kernel : Kernels.kernel; per_mode : ablation_cell list }

let ablation () =
  List.map
    (fun kernel ->
      {
        ab_kernel = kernel;
        per_mode =
          List.map
            (fun mode ->
              let m = measure mode kernel in
              {
                ab_mode = mode;
                ab_cycles = m.spill_cycles;
                ab_splits = m.result.Remat.Allocator.n_splits;
              })
            Mode.all;
      })
    Kernels.all

let pp_ablation ppf rows =
  match rows with
  | [] -> ()
  | first :: _ ->
      Format.fprintf ppf "%-12s" "routine";
      List.iter
        (fun c -> Format.fprintf ppf " %18s" (Mode.to_string c.ab_mode))
        first.per_mode;
      Format.fprintf ppf "@.%s@."
        (String.make (12 + (19 * List.length first.per_mode)) '-');
      List.iter
        (fun r ->
          Format.fprintf ppf "%-12s" r.ab_kernel.Kernels.name;
          List.iter (fun c -> Format.fprintf ppf " %18d" c.ab_cycles) r.per_mode;
          Format.fprintf ppf "@.")
        rows

(* ------------------------------------------------------------------ *)
(* The race: Chaitin–Briggs vs the decoupled SSA pipeline.             *)

type race_row = {
  race_kernel : Kernels.kernel;
  briggs_cycles : int;
  ssa_cycles : int;
  briggs_alloc_s : float;
  ssa_alloc_s : float;
  briggs_spilled : int;
  ssa_spilled : int;
  briggs_coalesced : int;
  ssa_coalesced : int;
}

let race ?(repeats = 5) () =
  let machine = Machine.standard in
  let best_time mode cfg =
    (* Coldest allocation first so both contenders warm the same caches;
       best-of-[repeats] like table2's timing discipline. *)
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to max 1 repeats do
      let t0 = Unix.gettimeofday () in
      let r = Remat.Allocator.allocate ~mode ~machine cfg in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let briggs_mode = Mode.Briggs_remat and ssa_mode = Mode.Ssa_remat in
  List.map
    (fun kernel ->
      let cfg = Kernels.cfg_of ~optimize:true kernel in
      let briggs, briggs_alloc_s = best_time briggs_mode cfg in
      let ssa, ssa_alloc_s = best_time ssa_mode cfg in
      let cycles (r : Remat.Allocator.result) =
        Counts.cycles (run_counts r.Remat.Allocator.cfg)
      in
      {
        race_kernel = kernel;
        briggs_cycles = cycles briggs;
        ssa_cycles = cycles ssa;
        briggs_alloc_s;
        ssa_alloc_s;
        briggs_spilled =
          briggs.Remat.Allocator.spilled_memory
          + briggs.Remat.Allocator.spilled_remat;
        ssa_spilled =
          ssa.Remat.Allocator.spilled_memory
          + ssa.Remat.Allocator.spilled_remat;
        briggs_coalesced = briggs.Remat.Allocator.coalesced_copies;
        ssa_coalesced = ssa.Remat.Allocator.coalesced_copies;
      })
    Kernels.all

let pp_race ppf rows =
  Format.fprintf ppf "%-12s %12s %12s %8s %11s %11s %9s %9s@." "routine"
    "briggs-cyc" "ssa-cyc" "Δcyc%" "briggs-ms" "ssa-ms" "spills" "coalesce";
  Format.fprintf ppf "%s@." (String.make 92 '-');
  List.iter
    (fun r ->
      let pct =
        if r.briggs_cycles = 0 then 0.
        else
          100.
          *. float_of_int (r.ssa_cycles - r.briggs_cycles)
          /. float_of_int r.briggs_cycles
      in
      Format.fprintf ppf "%-12s %12d %12d %7.2f%% %11.3f %11.3f %4d/%-4d %4d/%-4d@."
        r.race_kernel.Kernels.name r.briggs_cycles r.ssa_cycles pct
        (1000. *. r.briggs_alloc_s) (1000. *. r.ssa_alloc_s) r.briggs_spilled
        r.ssa_spilled r.briggs_coalesced r.ssa_coalesced)
    rows;
  let tot f = List.fold_left (fun a r -> a + f r) 0 rows in
  let tots f = List.fold_left (fun a r -> a +. f r) 0. rows in
  Format.fprintf ppf "%s@." (String.make 92 '-');
  Format.fprintf ppf "%-12s %12d %12d %8s %11.3f %11.3f %4d/%-4d %4d/%-4d@."
    "total"
    (tot (fun r -> r.briggs_cycles))
    (tot (fun r -> r.ssa_cycles))
    ""
    (1000. *. tots (fun r -> r.briggs_alloc_s))
    (1000. *. tots (fun r -> r.ssa_alloc_s))
    (tot (fun r -> r.briggs_spilled))
    (tot (fun r -> r.ssa_spilled))
    (tot (fun r -> r.briggs_coalesced))
    (tot (fun r -> r.ssa_coalesced))

let race_json rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"bench\":\"race\",\"kernels\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"kernel\":%s,\"briggs\":{\"cycles\":%d,\"alloc_seconds\":%.9f,\"spilled\":%d,\"coalesced\":%d},\"ssa\":{\"cycles\":%d,\"alloc_seconds\":%.9f,\"spilled\":%d,\"coalesced\":%d}}"
           (json_string r.race_kernel.Kernels.name)
           r.briggs_cycles r.briggs_alloc_s r.briggs_spilled r.briggs_coalesced
           r.ssa_cycles r.ssa_alloc_s r.ssa_spilled r.ssa_coalesced))
    rows;
  Buffer.add_string b "]}";
  Buffer.contents b
