(** HMAC-SHA256 (RFC 2104). *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag. *)

val mac_hex : key:string -> string -> string
(** Hex-encoded tag. *)

val verify : key:string -> string -> tag:string -> bool
(** Constant-time-ish comparison of a recomputed tag against [tag]. *)

type key
(** A prepared key: the SHA-256 midstates after absorbing the ipad and opad
    blocks. Read-only once built, so it may be shared across domains. *)

val prepare : string -> key
(** [prepare k] hashes [k]'s two padded blocks once. *)

val mac_prepared : key -> string -> string
(** [mac_prepared (prepare k) msg = mac ~key:k msg], two compressions
    cheaper. *)

val verify_prepared : key -> string -> tag:string -> bool
(** [verify_prepared (prepare k) msg ~tag = verify ~key:k msg ~tag]. *)
