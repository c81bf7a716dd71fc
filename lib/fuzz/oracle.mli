(** Differential-execution oracle for the whole pipeline.

    The paper validates allocation by running the allocated code and
    comparing dynamic behaviour (§5, Figure 4).  The oracle does exactly
    that, per routine, across a matrix of configurations: the optimization
    pipeline on and off, every allocator {!Remat.Mode}, and several
    {!Remat.Machine} register counts.  The original routine interpreted by
    {!Sim.Interp} is the reference; any configuration whose observable
    outcome differs — or that crashes, emits invalid ILOC, or leaves a
    register above the machine's [k] — is a divergence. *)

type divergence =
  | Crash of { phase : string; exn : string }
      (** the optimizer or allocator raised; [phase] is ["opt"], ["alloc"]
          or ["sim"] *)
  | Validator_rejection of Iloc.Validate.error list
      (** the allocated routine fails {!Iloc.Validate.routine} *)
  | Over_k of Verify.Error.t list
      (** registers above the machine's [k] survive in the output: the
          {!Verify.Check.over_k} errors among the validator's *)
  | Static_rejection of Verify.Error.t list
      (** the independent translation validator ({!Verify.Check}) cannot
          prove the allocation faithful — caught with no simulator run *)
  | Sim_error of string
      (** the allocated routine raises {!Sim.Interp.Runtime_error} even
          though the original runs cleanly *)
  | Wrong_outcome of string
      (** the allocated routine runs but its outcome (return value,
          prints, final memory) differs; the string describes the first
          difference *)

type config = {
  optimize : bool;  (** run {!Opt.Pipeline} before allocating *)
  mode : Remat.Mode.t;
  machine : Remat.Machine.t;
}

val config_name : config -> string
(** Stable human-readable key, e.g. ["opt+briggs@6/6"]. *)

val tight : Remat.Machine.t
(** A 6+6-register machine: small enough to force spilling on most
    generated routines, large enough that allocation must still succeed. *)

val default_matrix : config list
(** {!Remat.Mode.all} × optimization on/off × {standard, tight}. *)

val class_of : divergence -> string
(** Bucket class: ["crash"], ["validator-rejection"], ["over-k"],
    ["static"], ["runtime-error"] or ["wrong-outcome"]. *)

val fingerprint : divergence -> string
(** [class_of] refined with the failing phase, e.g. ["crash:alloc"]. *)

val describe : divergence -> string
(** One-line detail for reports. *)

val reference : Iloc.Cfg.t -> (Sim.Interp.outcome, string) result
(** Interpret the original routine; [Error] is the {!Sim.Interp}
    message if it does not run cleanly (such inputs cannot be oracle
    subjects).  Every interpretation here, of the original or of an
    allocated routine, runs on a budget of 200 000 instructions. *)

val check_config :
  reference:Sim.Interp.outcome ->
  Iloc.Cfg.t ->
  config ->
  divergence option
(** Push the routine through one configuration and compare against the
    reference outcome. *)

val check : Iloc.Cfg.t -> ((config * divergence) list, string) result
(** Run the whole {!default_matrix}.  [Ok []] means no divergence
    anywhere; [Error] means the reference itself failed. *)
