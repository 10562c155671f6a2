(* FIPS 180-4 SHA-256 on native ints.

   Every 32-bit word lives in an OCaml [int] whose low 32 bits hold the value.
   Rotations and additions may leave garbage above bit 31; additions carry
   only upwards, so masking once when a word is stored keeps the low bits
   exact. The compression loop therefore runs on unboxed registers and
   allocates nothing (boxed [Int32] allocated on every operation). This needs
   63-bit ints, hence the check below on 32-bit platforms.

   Full input blocks are compressed straight from the caller's string; only a
   trailing partial block is copied into the context's buffer. *)

let () =
  if Sys.int_size < 63 then failwith "Qs_crypto.Sha256: needs 63-bit native ints (a 64-bit platform)"

type digest = string

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array;               (* 8 state words *)
  buf : Bytes.t;               (* pending partial block *)
  mutable buf_len : int;
  mutable total : int;         (* total bytes absorbed *)
  w : int array;               (* 64-word message schedule scratch *)
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
         0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let copy ctx = { ctx with h = Array.copy ctx.h; buf = Bytes.copy ctx.buf; w = Array.make 64 0 }

let mask = 0xffff_ffff

(* Absorb the 64-byte block of [src] at [off]. Callers guarantee
   [off + 64 <= Bytes.length src]; [k] and [w] have 64 entries, so the
   unchecked accesses below stay in bounds. *)
let compress ctx src off =
  let w = ctx.w in
  for t = 0 to 15 do
    Array.unsafe_set w t (Int32.to_int (Bytes.get_int32_be src (off + (4 * t))) land mask)
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let s0 = ((x lsr 7) lor (x lsl 25)) lxor ((x lsr 18) lor (x lsl 14)) lxor (x lsr 3) in
    let s1 = ((y lsr 17) lor (y lsl 15)) lxor ((y lsr 19) lor (y lsl 13)) lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let e0 = !e and a0 = !a in
    let s1 =
      ((e0 lsr 6) lor (e0 lsl 26)) lxor ((e0 lsr 11) lor (e0 lsl 21))
      lxor ((e0 lsr 25) lor (e0 lsl 7))
    in
    let ch = (e0 land !f) lxor (lnot e0 land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 =
      ((a0 lsr 2) lor (a0 lsl 30)) lxor ((a0 lsr 13) lor (a0 lsl 19))
      lxor ((a0 lsr 22) lor (a0 lsl 10))
    in
    let maj = (a0 land !b) lxor (a0 land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := e0;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := a0;
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed ctx s =
  let len = String.length s in
  (* [compress] only reads its source, so the string is never mutated. *)
  let src = Bytes.unsafe_of_string s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Fill a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    compress ctx src !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

let finalize ctx =
  (* Append 0x80, pad with zeros to 56 mod 64, then 64-bit big-endian length. *)
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  let used = ctx.buf_len + 1 in
  if used > 56 then begin
    Bytes.fill buf used (64 - used) '\x00';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf used (56 - used) '\x00';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest_string s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digits = "0123456789abcdef"

let hex d =
  let out = Bytes.create (2 * String.length d) in
  String.iteri
    (fun i c ->
      let b = Char.code c in
      Bytes.set out (2 * i) hex_digits.[b lsr 4];
      Bytes.set out ((2 * i) + 1) hex_digits.[b land 15])
    d;
  Bytes.unsafe_to_string out

let digest_hex s = hex (digest_string s)
