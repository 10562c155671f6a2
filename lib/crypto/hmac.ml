(* HMAC-SHA256 with the RFC 2104 precomputation: a prepared key holds the
   SHA-256 midstates after the ipad and opad blocks, so a tag costs two
   compressions fewer than re-hashing the padded key blocks every time. *)

let block_size = 64

(* Never fed after [prepare]: tags are computed on copies, so a prepared key
   is read-only and may be shared across domains. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let prepare key =
  let key = if String.length key > block_size then Sha256.digest_string key else key in
  let midstate pad =
    let block =
      String.init block_size (fun i ->
          let k = if i < String.length key then Char.code key.[i] else 0 in
          Char.chr (k lxor pad))
    in
    let ctx = Sha256.init () in
    Sha256.feed ctx block;
    ctx
  in
  { inner = midstate 0x36; outer = midstate 0x5c }

let mac_prepared key msg =
  let inner = Sha256.copy key.inner in
  Sha256.feed inner msg;
  let outer = Sha256.copy key.outer in
  Sha256.feed outer (Sha256.finalize inner);
  Sha256.finalize outer

let verify_prepared key msg ~tag =
  let expected = mac_prepared key msg in
  if String.length expected <> String.length tag then false
  else begin
    (* Fold over all bytes regardless of mismatches. *)
    let diff = ref 0 in
    for i = 0 to String.length expected - 1 do
      diff := !diff lor (Char.code expected.[i] lxor Char.code tag.[i])
    done;
    !diff = 0
  end

let mac ~key msg = mac_prepared (prepare key) msg

let mac_hex ~key msg = Sha256.hex (mac ~key msg)

let verify ~key msg ~tag = verify_prepared (prepare key) msg ~tag
