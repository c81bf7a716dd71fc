type t = { name : string; k_int : int; k_float : int }

let make ~name ~k_int ~k_float =
  if k_int < 2 || k_float < 2 then
    invalid_arg "Machine.make: need at least two registers per class";
  { name; k_int; k_float }

let standard = make ~name:"standard" ~k_int:16 ~k_float:16
let huge = make ~name:"huge" ~k_int:128 ~k_float:128

let k_for t = function Iloc.Reg.Int -> t.k_int | Iloc.Reg.Float -> t.k_float
