type signature = string

(* One prepared HMAC key per process: [sign] and [verify] start from its
   cached midstates. Prepared keys are read-only, so a directory may be
   shared across domains. *)
type t = { keys : Hmac.key array }

let create ?(master = "qsel-reproduction-master-secret") n =
  if n <= 0 then invalid_arg "Auth.create: need at least one process";
  let master = Hmac.prepare master in
  let derive i = Hmac.prepare (Hmac.mac_prepared master (Printf.sprintf "process-key:%d" i)) in
  { keys = Array.init n derive }

let universe t = Array.length t.keys

let key t i =
  if i < 0 || i >= Array.length t.keys then invalid_arg "Auth: unknown process";
  t.keys.(i)

let sign t ~signer payload = Hmac.mac_prepared (key t signer) payload

let verify t ~signer payload tag = Hmac.verify_prepared (key t signer) payload ~tag

type signed = { signer : int; payload : string; signature : signature }

let seal t ~signer payload = { signer; payload; signature = sign t ~signer payload }

let check t s =
  s.signer >= 0
  && s.signer < Array.length t.keys
  && verify t ~signer:s.signer s.payload s.signature

let forge t ~claimed payload =
  ignore (key t claimed);
  (* A forger has no access to [claimed]'s key; the best it can do is an
     arbitrary tag, which verification rejects with overwhelming probability.
     We make rejection deterministic by tagging with a key outside the
     directory. *)
  { signer = claimed; payload; signature = Hmac.mac ~key:"forged" payload }
