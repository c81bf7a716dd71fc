type t = Reg of Iloc.Reg.t | Slot of int

let compare a b =
  match (a, b) with
  | Reg x, Reg y -> Iloc.Reg.compare x y
  | Slot x, Slot y -> Int.compare x y
  | Reg _, Slot _ -> -1
  | Slot _, Reg _ -> 1

let equal a b = compare a b = 0

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
