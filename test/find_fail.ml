let () =
  let machines = [ Remat.Machine.make ~name:"small" ~k_int:8 ~k_float:8; Remat.Machine.standard ] in
  List.iter (fun k ->
    let cfg = Suite.Kernels.cfg_of k in
    List.iter (fun mode ->
      List.iter (fun machine ->
        match Remat.Allocator.allocate ~mode ~machine cfg with
        | _ -> ()
        | exception e ->
          Format.printf "%s %s %s: %s@." k.Suite.Kernels.name
            (Remat.Mode.to_string mode) machine.Remat.Machine.name
            (Printexc.to_string e))
        machines)
      Remat.Mode.all)
    Suite.Kernels.all
