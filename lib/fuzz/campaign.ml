type report = {
  seed : int;
  config : string;
  fingerprint : string;
  detail : string;
  original_instrs : int;
  reduced_instrs : int;
  reduced : string;
}

type summary = {
  runs : int;
  seed : int;
  failures : report list;
  buckets : (string * int) list;
}

let bucket_key r = r.fingerprint ^ "|" ^ r.config

(* One seed: generate, run the oracle matrix, reduce the first divergence.
   Pure (no shared mutable state, no I/O) — the domain-safety contract of
   Suite.Pool, and what makes the summary independent of -j. *)
let one ~gen_config ~matrix ~reduce base i =
  let seed = base + i in
  let cfg = Gen.generate ~config:gen_config seed in
  match Oracle.reference cfg with
  | Error m ->
      (* Generated routines are terminating and definitely assigned by
         construction; a failing reference is a generator bug and is
         reported as its own bucket rather than crashing the campaign. *)
      Some
        {
          seed;
          config = "-";
          fingerprint = "generator:reference-error";
          detail = m;
          original_instrs = Reduce.instr_count cfg;
          reduced_instrs = Reduce.instr_count cfg;
          reduced = Iloc.Printer.routine_to_string cfg;
        }
  | Ok reference -> (
      let failure =
        List.find_map
          (fun c ->
            Option.map
              (fun d -> (c, d))
              (Oracle.check_config ~reference cfg c))
          matrix
      in
      match failure with
      | None -> None
      | Some (config, d) ->
          let cls = Oracle.class_of d in
          let interesting cand =
            match Oracle.reference cand with
            | Error _ -> false
            | Ok r -> (
                match Oracle.check_config ~reference:r cand config with
                | Some d' -> Oracle.class_of d' = cls
                | None -> false)
          in
          let red = if reduce then Reduce.run ~interesting cfg else cfg in
          Some
            {
              seed;
              config = Oracle.config_name config;
              fingerprint = Oracle.fingerprint d;
              detail = Oracle.describe d;
              original_instrs = Reduce.instr_count cfg;
              reduced_instrs = Reduce.instr_count red;
              reduced = Iloc.Printer.routine_to_string red;
            })

let run ?(gen_config = Gen.default) ?(matrix = Oracle.default_matrix)
    ?(reduce = true) ~runs ~seed ~jobs () =
  let results =
    Suite.Pool.run ~jobs
      (one ~gen_config ~matrix ~reduce seed)
      (Array.init runs Fun.id)
  in
  let failures =
    Array.to_list results |> List.filter_map Fun.id
  in
  let buckets =
    List.fold_left
      (fun acc r ->
        let k = bucket_key r in
        let n = Option.value (List.assoc_opt k acc) ~default:0 in
        (k, n + 1) :: List.remove_assoc k acc)
      [] failures
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { runs; seed; failures; buckets }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let summary_to_json s =
  let str = Suite.Report.json_string in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"runs\": %d,\n  \"seed\": %d,\n  \"divergences\": %d,\n"
       s.runs s.seed (List.length s.failures));
  Buffer.add_string b "  \"buckets\": {";
  List.iteri
    (fun i (k, n) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b (Printf.sprintf "\n    %s: %d" (str k) n))
    s.buckets;
  if s.buckets <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "},\n  \"failures\": [";
  List.iteri
    (fun i (r : report) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"seed\": %d, \"config\": %s, \"fingerprint\": %s, \
            \"detail\": %s, \"original_instrs\": %d, \"reduced_instrs\": %d, \
            \"reduced\": %s}"
           r.seed (str r.config) (str r.fingerprint) (str r.detail)
           r.original_instrs r.reduced_instrs (str r.reduced)))
    s.failures;
  if s.failures <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Corpus persistence                                                  *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let save ~dir summary =
  mkdir_p dir;
  write_file (Filename.concat dir "summary.json") (summary_to_json summary);
  List.iter
    (fun (r : report) ->
      let header =
        Printf.sprintf "; fuzz seed %d\n; config: %s\n; divergence: %s\n; %s\n"
          r.seed r.config r.fingerprint
          (String.concat "\n; " (String.split_on_char '\n' r.detail))
      in
      write_file
        (Filename.concat dir (Printf.sprintf "seed-%d.il" r.seed))
        (header ^ r.reduced))
    summary.failures
