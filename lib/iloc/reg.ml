type cls = Int | Float

type t = { id : int; cls : cls }

let equal a b = a.id = b.id && a.cls = b.cls
let compare a b =
  let c = Int.compare a.id b.id in
  if c <> 0 then c else Stdlib.compare a.cls b.cls

let hash t = (t.id * 2) + (match t.cls with Int -> 0 | Float -> 1)

let make id cls =
  if id < 0 then invalid_arg "Reg.make: negative id";
  { id; cls }

let id t = t.id
let cls t = t.cls
let is_int t = t.cls = Int
let is_float t = t.cls = Float

let cls_equal (a : cls) b = a = b
let cls_to_string = function Int -> "int" | Float -> "float"

let to_string t =
  match t.cls with
  | Int -> Printf.sprintf "r%d" t.id
  | Float -> Printf.sprintf "f%d" t.id

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Supply = struct
  type reg = t
  type t = { mutable next : int }

  let create ?(start = 0) () = { next = start }
  let last t = t.next

  let fresh t cls =
    t.next <- t.next + 1;
    make t.next cls

  (* silence unused-type warning for the destructive substitution alias *)
  let _ = fun (r : reg) -> r
end

module Ord = struct
  type nonrec t = t
  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)
