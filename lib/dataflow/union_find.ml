type t = { parent : int array; rank : int array; mutable n_classes : int }

let create n =
  if n < 0 then invalid_arg "Union_find.create";
  { parent = Array.init n (fun i -> i); rank = Array.make n 0; n_classes = n }

let rec find t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    let root = find t p in
    t.parent.(i) <- root;
    root
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then ra
  else begin
    t.n_classes <- t.n_classes - 1;
    if t.rank.(ra) < t.rank.(rb) then (
      t.parent.(ra) <- rb;
      rb)
    else if t.rank.(ra) > t.rank.(rb) then (
      t.parent.(rb) <- ra;
      ra)
    else (
      t.parent.(rb) <- ra;
      t.rank.(ra) <- t.rank.(ra) + 1;
      ra)
  end

let same t a b = find t a = find t b

let n_classes t = t.n_classes
