(* Scenario: a compiler back end.

   Compile an MF source program, optimize it, and sweep register counts
   to see how spill cost falls as registers are added — the experiment a
   back-end engineer runs when sizing a register file.

     dune exec examples/compiler_backend.exe *)

let source =
  {|
program smooth
const n = 24
real sig[24] = { 0.1 0.9 0.4 0.8 0.2 0.7 0.3 0.6 0.5 0.4 0.6 0.3
                 0.7 0.2 0.8 0.1 0.9 0.0 0.5 0.5 0.4 0.6 0.3 0.7 }
real outv[24]
int i, pass
real a, b, c, total
total = 0.0
for pass = 1 to 4 do
  for i = 1 to n - 2 do
    a = sig[i - 1]
    b = sig[i]
    c = sig[i + 1]
    outv[i] = 0.25 * a + 0.5 * b + 0.25 * c
  end
  for i = 1 to n - 2 do
    sig[i] = outv[i]
    total = total + outv[i]
  end
end
print total
|}

let () =
  Fmt.pr "compiling and optimizing 'smooth'...@.";
  let plain = Frontend.Lower.compile source in
  let optimized = Opt.Pipeline.run plain in
  let size cfg =
    Iloc.Cfg.fold_blocks
      (fun acc b -> acc + List.length b.Iloc.Block.body)
      0 cfg
  in
  Fmt.pr "static size: %d instructions naive, %d optimized@.@." (size plain)
    (size optimized);
  let reference = Sim.Interp.run optimized in
  (* Spill cost is measured against the allocation for a huge machine, as
     in the paper's §5.2 (coalescing removes copies, so the unallocated
     routine is not the right baseline). *)
  let base_cycles =
    let huge = Remat.Allocator.allocate ~machine:Remat.Machine.huge optimized in
    Sim.Counts.cycles
      (Sim.Interp.run huge.Remat.Allocator.cfg).Sim.Interp.counts
  in
  Fmt.pr "%-18s %12s %12s %10s@." "machine" "cycles" "spill cost" "rounds";
  List.iter
    (fun k ->
      let machine =
        Remat.Machine.make ~name:(Printf.sprintf "k=%d" k) ~k_int:k ~k_float:k
      in
      match Remat.Allocator.allocate ~machine optimized with
      | res ->
          let out = Sim.Interp.run res.Remat.Allocator.cfg in
          assert (Sim.Interp.outcome_equal reference out);
          let cycles = Sim.Counts.cycles out.Sim.Interp.counts in
          Fmt.pr "%-18s %12d %12d %10d@."
            (Printf.sprintf "%d int / %d float" k k)
            cycles (cycles - base_cycles) res.Remat.Allocator.rounds
      | exception Remat.Spill_code.Pressure_too_high _ ->
          Fmt.pr "%-18s %12s@." (Printf.sprintf "%d int / %d float" k k)
            "(too small)")
    [ 4; 6; 8; 12; 16; 24; 32 ]
