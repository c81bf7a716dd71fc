(* Rounds of the four passes before the pipeline stops even if one of
   them still reports a change. *)
let max_iters = 8

let run (cfg : Iloc.Cfg.t) =
  let rec go cfg n =
    if n = 0 then cfg
    else begin
      let c1 = Lvn.routine cfg in
      let c2 = Svn.routine cfg in
      let c3 = Dce.routine cfg in
      let cfg, c4 = Licm.routine cfg in
      if c1 || c2 || c3 || c4 then go cfg (n - 1) else cfg
    end
  in
  let cfg = go (Iloc.Cfg.copy cfg) max_iters in
  (match Iloc.Validate.routine cfg with
  | Ok () -> ()
  | Error es ->
      failwith
        (Printf.sprintf "Opt.Pipeline.run: produced invalid code: %s"
           (String.concat "; "
              (List.map Iloc.Validate.error_to_string es))));
  cfg
