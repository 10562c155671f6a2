(** A client request to the replicated state machine — the one request type
    every protocol stack orders and executes. Each stack's wire module
    re-exports it as its own [request] (with the same fields), so
    [Xmsg.client] and friends keep resolving. *)

type t = {
  client : int;
  rid : int;  (** client-local request id *)
  op : string;  (** state-machine operation *)
}

val encode : t -> string
(** Canonical bytes ["REQ|client|rid|op"], embedded in every signed
    binding that carries a request. *)
