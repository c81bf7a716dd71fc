type divergence =
  | Crash of { phase : string; exn : string }
  | Validator_rejection of Iloc.Validate.error list
  | Over_k of Verify.Error.t list
  | Static_rejection of Verify.Error.t list
  | Sim_error of string
  | Wrong_outcome of string

type config = {
  optimize : bool;
  mode : Remat.Mode.t;
  machine : Remat.Machine.t;
}

let config_name c =
  Printf.sprintf "%s+%s@%d/%d"
    (if c.optimize then "opt" else "raw")
    (Remat.Mode.to_string c.mode)
    c.machine.Remat.Machine.k_int c.machine.Remat.Machine.k_float

let tight = Remat.Machine.make ~name:"tight" ~k_int:6 ~k_float:6

let default_matrix =
  List.concat_map
    (fun optimize ->
      List.concat_map
        (fun machine ->
          List.map (fun mode -> { optimize; mode; machine }) Remat.Mode.all)
        [ Remat.Machine.standard; tight ])
    [ false; true ]

let class_of = function
  | Crash _ -> "crash"
  | Validator_rejection _ -> "validator-rejection"
  | Over_k _ -> "over-k"
  | Static_rejection _ -> "static"
  | Sim_error _ -> "runtime-error"
  | Wrong_outcome _ -> "wrong-outcome"

let fingerprint = function
  | Crash { phase; _ } -> "crash:" ^ phase
  | d -> class_of d

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let describe = function
  | Crash { phase; exn } -> Printf.sprintf "%s raised: %s" phase (first_line exn)
  | Validator_rejection es ->
      Printf.sprintf "invalid output ILOC: %s"
        (first_line
           (String.concat "; " (List.map Iloc.Validate.error_to_string es)))
  | Over_k es ->
      Printf.sprintf "registers above k in output: %s"
        (first_line (String.concat "; " (List.map Verify.Error.to_string es)))
  | Static_rejection es ->
      Printf.sprintf "static verifier rejected the allocation: %s"
        (first_line (String.concat "; " (List.map Verify.Error.to_string es)))
  | Sim_error m -> Printf.sprintf "allocated code failed to run: %s" m
  | Wrong_outcome m -> m

let pv v = Format.asprintf "%a" Sim.Interp.pp_value v

(* First observable difference between two outcomes, as text.  Dynamic
   counts are ignored, matching [Sim.Interp.outcome_equal]. *)
let outcome_diff (a : Sim.Interp.outcome) (b : Sim.Interp.outcome) =
  let value_opt_equal x y = Option.equal Sim.Interp.value_equal x y in
  if not (value_opt_equal a.return b.return) then
    Printf.sprintf "return differs: expected %s, got %s"
      (match a.return with Some v -> pv v | None -> "<none>")
      (match b.return with Some v -> pv v | None -> "<none>")
  else if List.length a.prints <> List.length b.prints then
    Printf.sprintf "print count differs: expected %d, got %d"
      (List.length a.prints) (List.length b.prints)
  else
    let rec first_print_diff i xs ys =
      match (xs, ys) with
      | x :: xs', y :: ys' ->
          if Sim.Interp.value_equal x y then first_print_diff (i + 1) xs' ys'
          else Some (i, x, y)
      | _, _ -> None
    in
    match first_print_diff 0 a.prints b.prints with
    | Some (i, x, y) ->
        Printf.sprintf "print #%d differs: expected %s, got %s" i (pv x) (pv y)
    | None ->
        (* Same prints and return: the difference is in final memory. *)
        let cell_diff =
          List.find_map
            (fun (name, cells) ->
              match List.assoc_opt name b.memory with
              | None -> Some (Printf.sprintf "symbol @%s missing" name)
              | Some cells' ->
                  let n = Array.length cells in
                  let rec go i =
                    if i >= n then None
                    else if
                      Option.equal Sim.Interp.value_equal cells.(i) cells'.(i)
                    then go (i + 1)
                    else
                      Some
                        (Printf.sprintf
                           "memory @%s[%d] differs: expected %s, got %s" name i
                           (match cells.(i) with Some v -> pv v | None -> "_")
                           (match cells'.(i) with Some v -> pv v | None -> "_"))
                  in
                  go 0)
            a.memory
        in
        Option.value cell_diff ~default:"outcomes differ"

(* Instruction budget of every interpretation: generated routines are
   small, and a runaway one must fail fast. *)
let fuel = 200_000

let reference cfg =
  match Sim.Interp.run ~fuel cfg with
  | o -> Ok o
  | exception Sim.Interp.Runtime_error m -> Error m

let check_config ~reference cfg config =
  let protect phase f =
    match f () with
    | v -> Ok v
    | exception e -> Error (Crash { phase; exn = Printexc.to_string e })
  in
  match
    protect "opt" (fun () ->
        if config.optimize then Opt.Pipeline.run cfg else cfg)
  with
  | Error d -> Some d
  | Ok prepared -> (
      match
        protect "alloc" (fun () ->
            Remat.Allocator.allocate ~mode:config.mode ~machine:config.machine
              prepared)
      with
      | Error d -> Some d
      | Ok res -> (
          let out = res.Remat.Allocator.cfg in
          match Iloc.Validate.routine out with
          | Error es -> Some (Validator_rejection es)
          | Ok () -> (
              (* Static translation validation: independent of the
                 simulator, so a bad allocation is caught even when no
                 dynamic input exercises the broken path. *)
              match
                Verify.Check.routine ~input:prepared ~output:out
                  ~k_int:config.machine.Remat.Machine.k_int
                  ~k_float:config.machine.Remat.Machine.k_float
              with
              | Error es -> (
                  match
                    List.filter
                      (fun (e : Verify.Error.t) ->
                        e.Verify.Error.kind = Verify.Error.Over_k)
                      es
                  with
                  | [] -> Some (Static_rejection es)
                  | over -> Some (Over_k over))
              | Ok _ -> (
                  match Sim.Interp.run ~fuel out with
                  | exception Sim.Interp.Runtime_error m -> Some (Sim_error m)
                  | exception e ->
                      Some (Crash { phase = "sim"; exn = Printexc.to_string e })
                  | outcome ->
                      if Sim.Interp.outcome_equal reference outcome then None
                      else Some (Wrong_outcome (outcome_diff reference outcome))
                  ))))

let check cfg =
  match reference cfg with
  | Error m -> Error m
  | Ok r ->
      Ok
        (List.filter_map
           (fun c ->
             Option.map (fun d -> (c, d)) (check_config ~reference:r cfg c))
           default_matrix)
