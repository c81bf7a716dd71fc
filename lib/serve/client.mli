(** Synchronous client for the serving protocol. *)

type t

val of_fds : in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> t
(** Wrap existing descriptors (e.g. a pipe pair to an in-process
    server); the caller keeps them and closes them. *)

val send : t -> Protocol.request -> unit
val receive : t -> (Protocol.response, string) result

val request : t -> Protocol.request -> (Protocol.response, string) result
(** [send] then [receive]. *)
