exception Error of { line : int; msg : string }

let fail line fmt = Printf.ksprintf (fun msg -> raise (Error { line; msg })) fmt

(* Numbered, tokenized, non-blank lines, in one scan of [src].  A token
   is a maximal run of characters other than space and tab ([\r] is a
   token character); [;] or [#] ends the line's text; every [\n] starts
   a new line number. *)
let lex src =
  let lines = ref [] and toks = ref [] in
  let line = ref 1 and start = ref (-1) and comment = ref false in
  let end_token i =
    if !start >= 0 then begin
      toks := String.sub src !start (i - !start) :: !toks;
      start := -1
    end
  in
  let end_line i =
    end_token i;
    if !toks <> [] then begin
      lines := (!line, List.rev !toks) :: !lines;
      toks := []
    end
  in
  for i = 0 to String.length src - 1 do
    match src.[i] with
    | '\n' ->
        end_line i;
        incr line;
        comment := false
    | _ when !comment -> ()
    | ' ' | '\t' -> end_token i
    | ';' | '#' ->
        end_token i;
        comment := true
    | _ -> if !start < 0 then start := i
  done;
  end_line (String.length src);
  List.rev !lines

let parse_reg ln s =
  let bad () = fail ln "expected register, got %S" s in
  if String.length s < 2 then bad ();
  let cls =
    match s.[0] with 'r' -> Reg.Int | 'f' -> Reg.Float | _ -> bad ()
  in
  match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
  | Some id when id >= 0 -> Reg.make id cls
  | _ -> bad ()

let parse_int ln s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail ln "expected integer, got %S" s

let parse_float ln s =
  match float_of_string_opt s with
  | Some x -> x
  | None -> fail ln "expected float, got %S" s

let parse_sym ln s =
  if String.length s > 1 && s.[0] = '@' then
    String.sub s 1 (String.length s - 1)
  else fail ln "expected @symbol, got %S" s

let parse_slot ln s =
  let n = String.length s in
  if n >= 3 && s.[0] = '[' && s.[n - 1] = ']' then
    parse_int ln (String.sub s 1 (n - 2))
  else fail ln "expected [slot], got %S" s

let parse_rel ln name prefix =
  let plen = String.length prefix in
  let r = String.sub name plen (String.length name - plen) in
  match r with
  | "eq" -> Instr.Eq
  | "ne" -> Instr.Ne
  | "lt" -> Instr.Lt
  | "le" -> Instr.Le
  | "gt" -> Instr.Gt
  | "ge" -> Instr.Ge
  | _ -> fail ln "unknown relation in %S" name

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let parse_instr_tokens ln toks =
  let reg = parse_reg ln
  and int = parse_int ln
  and flt = parse_float ln
  and sym = parse_sym ln
  and slot = parse_slot ln in
  let wrap f = try f () with Invalid_argument m -> fail ln "%s" m in
  match toks with
  | [ d; "<-"; op ] when op = "ret" || op = "nop" ->
      fail ln "%s cannot have a destination (%s)" op d
  | [ d; "<-"; "ldi"; n ] -> wrap (fun () -> Instr.ldi (reg d) (int n))
  | [ d; "<-"; "lfi"; x ] -> wrap (fun () -> Instr.lfi (reg d) (flt x))
  | [ d; "<-"; "laddr"; s ] -> wrap (fun () -> Instr.laddr (reg d) (sym s))
  | [ d; "<-"; "laddr"; s; n ] ->
      wrap (fun () -> Instr.laddr (reg d) ~off:(int n) (sym s))
  | [ d; "<-"; "lfp"; n ] -> wrap (fun () -> Instr.lfp (reg d) (int n))
  | [ d; "<-"; "ldro"; s; n ] ->
      wrap (fun () -> Instr.ldro (reg d) (sym s) (int n))
  | [ d; "<-"; "add"; a; b ] -> wrap (fun () -> Instr.add (reg d) (reg a) (reg b))
  | [ d; "<-"; "sub"; a; b ] -> wrap (fun () -> Instr.sub (reg d) (reg a) (reg b))
  | [ d; "<-"; "mul"; a; b ] -> wrap (fun () -> Instr.mul (reg d) (reg a) (reg b))
  | [ d; "<-"; "div"; a; b ] -> wrap (fun () -> Instr.div (reg d) (reg a) (reg b))
  | [ d; "<-"; "rem"; a; b ] -> wrap (fun () -> Instr.rem (reg d) (reg a) (reg b))
  | [ d; "<-"; cmp; a; b ] when has_prefix ~prefix:"cmp_" cmp ->
      let r = parse_rel ln cmp "cmp_" in
      wrap (fun () -> Instr.cmp r (reg d) (reg a) (reg b))
  | [ d; "<-"; cmp; a; b ] when has_prefix ~prefix:"fcmp_" cmp ->
      let r = parse_rel ln cmp "fcmp_" in
      wrap (fun () -> Instr.fcmp r (reg d) (reg a) (reg b))
  | [ d; "<-"; "addi"; a; n ] -> wrap (fun () -> Instr.addi (reg d) (reg a) (int n))
  | [ d; "<-"; "subi"; a; n ] -> wrap (fun () -> Instr.subi (reg d) (reg a) (int n))
  | [ d; "<-"; "muli"; a; n ] -> wrap (fun () -> Instr.muli (reg d) (reg a) (int n))
  | [ d; "<-"; "fadd"; a; b ] -> wrap (fun () -> Instr.fadd (reg d) (reg a) (reg b))
  | [ d; "<-"; "fsub"; a; b ] -> wrap (fun () -> Instr.fsub (reg d) (reg a) (reg b))
  | [ d; "<-"; "fmul"; a; b ] -> wrap (fun () -> Instr.fmul (reg d) (reg a) (reg b))
  | [ d; "<-"; "fdiv"; a; b ] -> wrap (fun () -> Instr.fdiv (reg d) (reg a) (reg b))
  | [ d; "<-"; "fneg"; a ] -> wrap (fun () -> Instr.fneg (reg d) (reg a))
  | [ d; "<-"; "fabs"; a ] -> wrap (fun () -> Instr.fabs (reg d) (reg a))
  | [ d; "<-"; "itof"; a ] -> wrap (fun () -> Instr.itof (reg d) (reg a))
  | [ d; "<-"; "ftoi"; a ] -> wrap (fun () -> Instr.ftoi (reg d) (reg a))
  | [ d; "<-"; "copy"; a ] -> wrap (fun () -> Instr.copy (reg d) (reg a))
  | [ d; "<-"; "load"; a ] -> wrap (fun () -> Instr.load (reg d) (reg a))
  | [ d; "<-"; "loadx"; a; b ] ->
      wrap (fun () -> Instr.loadx (reg d) (reg a) (reg b))
  | [ d; "<-"; "loadi"; a; n ] ->
      wrap (fun () -> Instr.loadi (reg d) (reg a) (int n))
  | [ d; "<-"; "reload"; s ] -> wrap (fun () -> Instr.reload (reg d) (slot s))
  | [ "store"; v; "->"; a ] ->
      wrap (fun () -> Instr.store ~value:(reg v) ~addr:(reg a))
  | [ "storex"; v; "->"; b; i ] ->
      wrap (fun () -> Instr.storex ~value:(reg v) ~base:(reg b) ~idx:(reg i))
  | [ "storei"; v; "->"; b; n ] ->
      wrap (fun () -> Instr.storei ~value:(reg v) ~base:(reg b) ~off:(int n))
  | [ "spill"; v; "->"; s ] -> wrap (fun () -> Instr.spill (reg v) (slot s))
  | [ "jmp"; l ] -> Instr.jmp l
  | [ "cbr"; c; l1; l2 ] -> wrap (fun () -> Instr.cbr (reg c) l1 l2)
  | [ "ret" ] -> Instr.ret None
  | [ "ret"; r ] -> wrap (fun () -> Instr.ret (Some (reg r)))
  | [ "print"; r ] -> wrap (fun () -> Instr.print_ (reg r))
  | [ "nop" ] -> Instr.nop
  | _ -> fail ln "cannot parse instruction: %s" (String.concat " " toks)

let instr s =
  match lex s with
  | [ (ln, toks) ] -> parse_instr_tokens ln toks
  | _ -> fail 1 "expected exactly one instruction"

(* data [const] name[size] [= { ints } | = f{ floats }] *)
let parse_data ln toks =
  let readonly, toks =
    match toks with
    | "const" :: rest -> (true, rest)
    | _ -> (false, toks)
  in
  let name_size, init_toks =
    match toks with
    | ns :: rest -> (ns, rest)
    | [] -> fail ln "data: missing name"
  in
  let name, size =
    match String.index_opt name_size '[' with
    | Some i when name_size.[String.length name_size - 1] = ']' ->
        let name = String.sub name_size 0 i in
        let sz =
          String.sub name_size (i + 1) (String.length name_size - i - 2)
        in
        (name, parse_int ln sz)
    | _ -> fail ln "data: expected name[size], got %S" name_size
  in
  let init =
    match init_toks with
    | [] -> Symbol.Uninit
    | "=" :: "{" :: rest ->
        let nums =
          match List.rev rest with
          | "}" :: r -> List.rev r
          | _ -> fail ln "data: missing closing brace"
        in
        Symbol.Int_elts (List.map (parse_int ln) nums)
    | "=" :: "f{" :: rest ->
        let nums =
          match List.rev rest with
          | "}" :: r -> List.rev r
          | _ -> fail ln "data: missing closing brace"
        in
        Symbol.Float_elts (List.map (parse_float ln) nums)
    | _ -> fail ln "data: malformed initializer"
  in
  try Symbol.make ~readonly ~init name size
  with Invalid_argument m -> fail ln "%s" m

let is_label_line = function
  | [ tok ] ->
      String.length tok > 1 && tok.[String.length tok - 1] = ':'
  | _ -> false

let label_of = function
  | [ tok ] -> String.sub tok 0 (String.length tok - 1)
  | _ -> assert false

(* Parse one routine starting at [lines]; return the Cfg and the rest. *)
let parse_one lines =
  let name, lines =
    match lines with
    | (ln, [ "routine"; name ]) :: rest -> ((ln, name), rest)
    | (ln, _) :: _ -> fail ln "expected 'routine <name>'"
    | [] -> fail 0 "empty input"
  in
  let rec take_data acc = function
    | (ln, "data" :: toks) :: rest -> take_data (parse_data ln toks :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let symbols, lines = take_data [] lines in
  let rec take_blocks acc lines =
    match lines with
    | (ln, toks) :: rest when is_label_line toks ->
        let label = label_of toks in
        let rec take_instrs iacc = function
          | (_, toks) :: _ as rest when is_label_line toks -> (List.rev iacc, rest)
          | (_, [ "routine"; _ ]) :: _ as rest -> (List.rev iacc, rest)
          | (ln, toks) :: rest ->
              take_instrs ((ln, parse_instr_tokens ln toks) :: iacc) rest
          | [] -> (List.rev iacc, [])
        in
        let instrs, rest = take_instrs [] rest in
        let body, term =
          match List.rev instrs with
          | (_, last) :: body_rev when Instr.is_terminator last ->
              let body = List.rev body_rev in
              (match List.find_opt (fun (_, i) -> Instr.is_terminator i) body with
              | Some (tln, _) ->
                  fail tln "terminator before the end of block %s" label
              | None -> ());
              (List.map snd body, last)
          | _ -> fail ln "block %s does not end with a terminator" label
        in
        take_blocks ((label, body, term) :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let blocks, rest = take_blocks [] lines in
  let ln, name = name in
  if blocks = [] then fail ln "routine %s has no blocks" name;
  let blocks =
    List.mapi
      (fun id (label, body, term) -> Block.make ~id ~label ~body ~term ())
      blocks
  in
  let cfg =
    try Cfg.make ~name ~symbols blocks
    with Invalid_argument m -> fail ln "%s" m
  in
  (cfg, rest)

let program_of_lines lines =
  let rec go acc = function
    | [] -> List.rev acc
    | lines ->
        let cfg, rest = parse_one lines in
        go (cfg :: acc) rest
  in
  go [] lines

let program src = program_of_lines (lex src)

let routine_of_lines lines =
  match program_of_lines lines with
  | [ cfg ] -> cfg
  | l -> fail 0 "expected exactly one routine, found %d" (List.length l)

let routine src = routine_of_lines (lex src)
