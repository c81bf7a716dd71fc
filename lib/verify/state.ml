open Iloc

type t = {
  eqs : Reg.Set.t Loc.Map.t;
  exprs : Instr.op Loc.Map.t;
  consts : Instr.op Reg.Map.t;
}

let empty =
  { eqs = Loc.Map.empty; exprs = Loc.Map.empty; consts = Reg.Map.empty }

let equal a b =
  Loc.Map.equal Reg.Set.equal a.eqs b.eqs
  && Loc.Map.equal Instr.remat_equal a.exprs b.exprs
  && Reg.Map.equal Instr.remat_equal a.consts b.consts

let meet a b =
  let keep_equal _ x y =
    match (x, y) with
    | Some x, Some y when Instr.remat_equal x y -> Some x
    | _ -> None
  in
  {
    eqs =
      Loc.Map.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y ->
              let i = Reg.Set.inter x y in
              if Reg.Set.is_empty i then None else Some i
          | _ -> None)
        a.eqs b.eqs;
    exprs = Loc.Map.merge keep_equal a.exprs b.exprs;
    consts = Reg.Map.merge keep_equal a.consts b.consts;
  }

let holds st v loc =
  let cls_ok =
    match loc with
    | Loc.Reg p -> Reg.cls_equal (Reg.cls p) (Reg.cls v)
    | Loc.Slot _ -> true
  in
  cls_ok
  && ((match Loc.Map.find_opt loc st.eqs with
      | Some s -> Reg.Set.mem v s
      | None -> false)
     ||
     match (Loc.Map.find_opt loc st.exprs, Reg.Map.find_opt v st.consts) with
     | Some e, Some c -> Instr.remat_equal e c
     | _ -> false)

let kill_loc st loc =
  { st with eqs = Loc.Map.remove loc st.eqs; exprs = Loc.Map.remove loc st.exprs }

let kill_vreg st v =
  (* Most redefinitions hit a register no fact mentions: probe before
     rebuilding the map. *)
  let in_eqs = Loc.Map.exists (fun _ s -> Reg.Set.mem v s) st.eqs in
  if (not in_eqs) && not (Reg.Map.mem v st.consts) then st
  else
    let eqs =
      if not in_eqs then st.eqs
      else
        Loc.Map.filter_map
          (fun _ s ->
            let s = Reg.Set.remove v s in
            if Reg.Set.is_empty s then None else Some s)
          st.eqs
    in
    { st with eqs; consts = Reg.Map.remove v st.consts }

let bind_def st ~vreg ~loc =
  let st = kill_vreg st vreg in
  let st = kill_loc st loc in
  { st with eqs = Loc.Map.add loc (Reg.Set.singleton vreg) st.eqs }

let loc_copy st ~src ~dst =
  if Loc.equal src dst then st
  else
    let st = kill_loc st dst in
    let eqs =
      match Loc.Map.find_opt src st.eqs with
      | Some s -> Loc.Map.add dst s st.eqs
      | None -> st.eqs
    in
    let exprs =
      match Loc.Map.find_opt src st.exprs with
      | Some e -> Loc.Map.add dst e st.exprs
      | None -> st.exprs
    in
    { st with eqs; exprs }

let input_copy st ~dst ~src =
  if Reg.equal dst src then st
  else
    let src_locs =
      Loc.Map.fold
        (fun loc s acc -> if Reg.Set.mem src s then loc :: acc else acc)
        st.eqs []
    in
    let src_const = Reg.Map.find_opt src st.consts in
    let st = kill_vreg st dst in
    let eqs =
      List.fold_left
        (fun eqs loc ->
          Loc.Map.update loc
            (function
              | Some s -> Some (Reg.Set.add dst s)
              | None -> Some (Reg.Set.singleton dst))
            eqs)
        st.eqs src_locs
    in
    let consts =
      match src_const with
      | Some c -> Reg.Map.add dst c st.consts
      | None -> st.consts
    in
    { st with eqs; consts }

let input_const st ~vreg ~op =
  let st = kill_vreg st vreg in
  { st with consts = Reg.Map.add vreg op st.consts }

let remat st ~loc ~op =
  let st = kill_loc st loc in
  let vs =
    Reg.Map.fold
      (fun v c acc -> if Instr.remat_equal c op then Reg.Set.add v acc else acc)
      st.consts Reg.Set.empty
  in
  let eqs = if Reg.Set.is_empty vs then st.eqs else Loc.Map.add loc vs st.eqs in
  { st with eqs; exprs = Loc.Map.add loc op st.exprs }
