type t = { mutable data : int array; mutable len : int }

let create ?(cap = 0) () = { data = Array.make (max cap 0) 0; len = 0 }

let of_prefix data len =
  if len < 0 || len > Array.length data then invalid_arg "Int_vec.of_prefix";
  { data; len }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Int_vec.get";
  Array.unsafe_get t.data i

let push t x =
  if t.len = Array.length t.data then begin
    let data = Array.make (max 4 (2 * t.len)) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

(* Index of the first [x], or [len] when absent. *)
let index t x =
  let data = t.data and len = t.len in
  let i = ref 0 in
  while !i < len && Array.unsafe_get data !i <> x do
    incr i
  done;
  !i

let mem t x = index t x < t.len

let remove_value t x =
  let i = index t x in
  if i < t.len then begin
    t.len <- t.len - 1;
    Array.unsafe_set t.data i (Array.unsafe_get t.data t.len)
  end

let pop t =
  if t.len = 0 then invalid_arg "Int_vec.pop";
  t.len <- t.len - 1;
  Array.unsafe_get t.data t.len

let clear t = t.len <- 0
let copy t = { data = Array.sub t.data 0 t.len; len = t.len }

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let exists f t =
  let data = t.data and len = t.len in
  let rec go i = i < len && (f (Array.unsafe_get data i) || go (i + 1)) in
  go 0

let fold f t init =
  let acc = ref init in
  iter (fun x -> acc := f x !acc) t;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))
