type t = {
  mutable load : int;
  mutable store : int;
  mutable cp : int;
  mutable ldi : int;
  mutable addi : int;
  mutable other : int;
}

let create () = { load = 0; store = 0; cp = 0; ldi = 0; addi = 0; other = 0 }

let record t op =
  match Iloc.Instr.category op with
  | Iloc.Instr.Cat_load -> t.load <- t.load + 1
  | Iloc.Instr.Cat_store -> t.store <- t.store + 1
  | Iloc.Instr.Cat_copy -> t.cp <- t.cp + 1
  | Iloc.Instr.Cat_ldi -> t.ldi <- t.ldi + 1
  | Iloc.Instr.Cat_addi -> t.addi <- t.addi + 1
  | Iloc.Instr.Cat_other -> t.other <- t.other + 1

let get t = function
  | Iloc.Instr.Cat_load -> t.load
  | Iloc.Instr.Cat_store -> t.store
  | Iloc.Instr.Cat_copy -> t.cp
  | Iloc.Instr.Cat_ldi -> t.ldi
  | Iloc.Instr.Cat_addi -> t.addi
  | Iloc.Instr.Cat_other -> t.other

let total_instrs t = t.load + t.store + t.cp + t.ldi + t.addi + t.other

let cycles t = (2 * (t.load + t.store)) + t.cp + t.ldi + t.addi + t.other
let cycles_signed = cycles

let sub a b =
  {
    load = a.load - b.load;
    store = a.store - b.store;
    cp = a.cp - b.cp;
    ldi = a.ldi - b.ldi;
    addi = a.addi - b.addi;
    other = a.other - b.other;
  }

let pp ppf t =
  Format.fprintf ppf
    "loads=%d stores=%d copies=%d ldi=%d addi=%d other=%d (cycles=%d)" t.load
    t.store t.cp t.ldi t.addi t.other (cycles t)
