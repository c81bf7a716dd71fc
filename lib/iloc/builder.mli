(** Programmatic construction of ILOC routines.

    The builder hands out fresh virtual registers and accumulates labeled
    blocks; {!finish} numbers the blocks in declaration order (the first
    block is the entry) and produces a checked {!Cfg.t}.

    {[
      let b = Builder.create "sum" in
      let acc = Builder.ireg b in
      Builder.block b "entry" [ Instr.ldi acc 42 ]
        ~term:(Instr.ret (Some acc));
      let routine = Builder.finish b
    ]} *)

type t

val create : string -> t

val data :
  t -> ?readonly:bool -> ?init:Symbol.init -> string -> int -> unit
(** Declare a static symbol. *)

val reg : t -> Reg.cls -> Reg.t
val ireg : t -> Reg.t
val freg : t -> Reg.t

val block : t -> string -> Instr.t list -> term:Instr.t -> unit
(** Raises [Invalid_argument] on duplicate labels. *)

val finish : t -> Cfg.t
