(** Graphviz output for interference graphs.

    Nodes are live ranges (ellipses for integer, boxes for float);
    interference edges are solid, split-partner relations dotted.

    {v dune exec bin/ralloc.exe -- dot kernel:fehl --interference \
         | dot -Tsvg > ig.svg v} *)

module Reg = Iloc.Reg

let interference ?(split_pairs = []) ppf (g : Interference.t) =
  Format.fprintf ppf "graph interference {@.";
  Format.fprintf ppf "  node [fontname=\"monospace\", style=filled];@.";
  (* Nodes merged away by in-place coalescing are not part of the graph
     any more; only live representatives are drawn. *)
  for i = 0 to Interference.n_nodes g - 1 do
    if Interference.alive g i then begin
      let r = Interference.reg g i in
      Format.fprintf ppf
        "  n%d [label=\"%s (%d)\", shape=%s, fillcolor=\"#ffffff\"];@." i
        (Reg.to_string r)
        (Interference.degree g i)
        (if Reg.is_int r then "ellipse" else "box")
    end
  done;
  for i = 0 to Interference.n_nodes g - 1 do
    if Interference.alive g i then
      List.iter
        (fun j -> if j > i then Format.fprintf ppf "  n%d -- n%d;@." i j)
        (Interference.neighbors g i)
  done;
  List.iter
    (fun (a, b) ->
      match (Interference.index_opt g a, Interference.index_opt g b) with
      | Some ia, Some ib ->
          let ia = Interference.find g ia and ib = Interference.find g ib in
          if ia <> ib then
            Format.fprintf ppf "  n%d -- n%d [style=dotted];@." ia ib
      | _ -> ())
    split_pairs;
  Format.fprintf ppf "}@."

let interference_to_string ?split_pairs g =
  Format.asprintf "%a" (interference ?split_pairs) g

let stats = Stats.pp
