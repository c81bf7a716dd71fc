(** ILOC instructions.

    Instructions are a low-level, register-transfer form modeled on the ILOC
    language of Briggs' thesis and the paper's Figure 4.  Every instruction
    has at most one destination register and a small tuple of source
    registers; all other operands (immediates, symbols, frame offsets,
    labels) are carried inside the opcode itself.  This is the property the
    rematerialization tag lattice relies on: a {e never-killed} instruction
    has no register sources, so two tags compare equal exactly when their
    opcodes are structurally equal (§3.2 of the paper). *)

(** Comparison relations for [Cmp] and [Fcmp]. *)
type rel = Eq | Ne | Lt | Le | Gt | Ge

type op =
  (* Never-killed candidates: computable from always-available operands. *)
  | Ldi of int  (** load integer immediate *)
  | Lfi of float  (** load floating-point immediate *)
  | Laddr of string * int
      (** address of a static symbol plus a constant offset *)
  | Lfp of int  (** frame pointer plus constant offset *)
  | Ldro of string * int
      (** load from a constant location: [mem\[&sym + off\]] with [sym]
          read-only *)
  (* Integer arithmetic (two register sources). *)
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Cmp of rel  (** integer compare, produces 0/1 *)
  (* Integer immediate forms (one register source). *)
  | Addi of int
  | Subi of int
  | Muli of int
  (* Floating-point arithmetic. *)
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fcmp of rel  (** float compare, produces an {e integer} 0/1 *)
  | Fneg
  | Fabs
  | Itof  (** int source to float destination *)
  | Ftoi  (** float source truncated to int destination *)
  | Copy  (** same-class register copy *)
  (* Memory.  Addresses are word-granular integers. *)
  | Load  (** [dst := mem\[src1\]]; the destination class selects the width *)
  | Loadx  (** [dst := mem\[src1 + src2\]] *)
  | Loadi of int  (** [dst := mem\[src1 + c\]] *)
  | Store  (** [mem\[src2\] := src1] *)
  | Storex  (** [mem\[src2 + src3\] := src1] *)
  | Storei of int  (** [mem\[src2 + c\] := src1] *)
  (* Spill traffic, kept distinct from data memory for easy accounting;
     slots index a per-routine frame area. *)
  | Spill of int  (** [frame\[slot\] := src1] *)
  | Reload of int  (** [dst := frame\[slot\]] *)
  (* Control flow: these terminate basic blocks. *)
  | Jmp of string
  | Cbr of string * string  (** branch to first label if [src1 <> 0] *)
  | Ret  (** optional source is the routine's result *)
  (* Observability and padding. *)
  | Print  (** emit the source value; the simulator records it *)
  | Nop

type t = { op : op; dst : Reg.t option; srcs : Reg.t array }

val make : op -> ?dst:Reg.t -> Reg.t list -> t
(** [make op ?dst srcs] checks the operand arity and register classes
    demanded by [op] and raises [Invalid_argument] on mismatch. *)

(** {1 Smart constructors} *)

val ldi : Reg.t -> int -> t
val lfi : Reg.t -> float -> t
val laddr : Reg.t -> ?off:int -> string -> t
val lfp : Reg.t -> int -> t
val ldro : Reg.t -> string -> int -> t
val add : Reg.t -> Reg.t -> Reg.t -> t
val sub : Reg.t -> Reg.t -> Reg.t -> t
val mul : Reg.t -> Reg.t -> Reg.t -> t
val div : Reg.t -> Reg.t -> Reg.t -> t
val rem : Reg.t -> Reg.t -> Reg.t -> t
val cmp : rel -> Reg.t -> Reg.t -> Reg.t -> t
val addi : Reg.t -> Reg.t -> int -> t
val subi : Reg.t -> Reg.t -> int -> t
val muli : Reg.t -> Reg.t -> int -> t
val fadd : Reg.t -> Reg.t -> Reg.t -> t
val fsub : Reg.t -> Reg.t -> Reg.t -> t
val fmul : Reg.t -> Reg.t -> Reg.t -> t
val fdiv : Reg.t -> Reg.t -> Reg.t -> t
val fcmp : rel -> Reg.t -> Reg.t -> Reg.t -> t
val fneg : Reg.t -> Reg.t -> t
val fabs : Reg.t -> Reg.t -> t
val itof : Reg.t -> Reg.t -> t
val ftoi : Reg.t -> Reg.t -> t
val copy : Reg.t -> Reg.t -> t
val load : Reg.t -> Reg.t -> t
val loadx : Reg.t -> Reg.t -> Reg.t -> t
val loadi : Reg.t -> Reg.t -> int -> t
val store : value:Reg.t -> addr:Reg.t -> t
val storex : value:Reg.t -> base:Reg.t -> idx:Reg.t -> t
val storei : value:Reg.t -> base:Reg.t -> off:int -> t
val spill : Reg.t -> int -> t
val reload : Reg.t -> int -> t
val jmp : string -> t
val cbr : Reg.t -> string -> string -> t
val ret : Reg.t option -> t
val print_ : Reg.t -> t
val nop : t

(** {1 Queries} *)

val defs : t -> Reg.t list
val uses : t -> Reg.t list
val is_terminator : t -> bool
val is_copy : t -> bool

val equal_op : op -> op -> bool
(** Structural opcode equality, payload by payload.  Float payloads
    compare with [Float.equal] (NaN equals itself, +0 equals -0) — the
    same identification polymorphic compare makes, without the generic
    traversal. *)

val equal : t -> t -> bool
(** {!equal_op} on the opcodes plus register-for-register equality of
    destination and sources. *)

val never_killed : op -> bool
(** Instructions the paper classes as never-killed: immediate loads, label
    addresses, frame-pointer offsets, and loads from constant locations. *)

val remat_equal : op -> op -> bool
(** Operand-by-operand equality of rematerialization instructions.  Only
    meaningful for never-killed opcodes. *)

val targets : t -> string list
(** Labels a terminator may transfer control to ([] for [Ret]). *)

val map_regs : (Reg.t -> Reg.t) -> t -> t
(** Apply a substitution to every register operand (sources and
    destination). *)

val map_targets : (string -> string) -> t -> t

(** Dynamic-count categories reported in the paper's Table 1. *)
type category = Cat_load | Cat_store | Cat_copy | Cat_ldi | Cat_addi | Cat_other

val category : op -> category
val category_to_string : category -> string
val all_categories : category list

val eval_rel_int : rel -> int -> int -> bool
val eval_rel_float : rel -> float -> float -> bool

val to_buffer : Buffer.t -> t -> unit
(** Append the instruction's concrete syntax, the text {!Parser} reads
    (e.g. [r3 <- addi r1 4], [storei r2 -> r1 8]); float immediates print
    as [%h].  {!to_string}, {!pp} and {!Printer} all derive from it. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
