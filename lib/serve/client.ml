(* Minimal synchronous client: one request, one framed response. *)

type t = { out_fd : Unix.file_descr; reader : Frame.reader }

let of_fds ~in_fd ~out_fd = { out_fd; reader = Frame.reader in_fd }

let send t req = Frame.write_frame t.out_fd (Protocol.encode_request req)

let receive t =
  match Frame.next t.reader with
  | Frame.Frame payload -> Protocol.parse_response payload
  | Frame.End_of_input -> Error "connection closed by server"
  | Frame.Corrupt msg -> Error (Printf.sprintf "corrupt response stream: %s" msg)

let request t req =
  send t req;
  receive t
