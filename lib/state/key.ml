(* Packed map/sketch keys.  The stateful containers are logically keyed by
   byte strings (the Vigor encoding that Dsl.Ast.key_of_parts produces); a
   key of at most [max_packed_bytes] bytes is represented instead as one
   tagged OCaml int — the byte content in the low 56 bits plus the length
   in the bits above — so the per-packet fast path never allocates a key.
   The length tag keeps keys of different byte lengths distinct, exactly as
   their string encodings are.

   Map keys of up to [max_pair_bytes] bytes use a pair of immediate ints
   [(hi, lo)]: a key that packs is [(tag, 0)]; a wider one carries its
   first 7 bytes untagged in [hi] and the tagged remainder in [lo], which
   is never 0 because its length tag is at least 1. *)

let max_packed_bytes = 7
let max_pair_bytes = 2 * max_packed_bytes
let tag_shift = 8 * max_packed_bytes

let fits s = String.length s <= max_packed_bytes
let fits_pair s = String.length s <= max_pair_bytes

let tag ~bytes v = (bytes lsl tag_shift) lor v

let byte_length k = k lsr tag_shift

(* Big-endian integer value of [s.[off .. off + n - 1]], [n <= 7]. *)
let be_int s off n =
  let v = ref 0 in
  for i = off to off + n - 1 do
    v := (!v lsl 8) lor Char.code (String.unsafe_get s i)
  done;
  !v

(* The [i]-th of the [n] big-endian bytes of [v]. *)
let be_byte v n i = Char.unsafe_chr ((v lsr (8 * (n - 1 - i))) land 0xff)

let pack_string s =
  let n = String.length s in
  if n > max_packed_bytes then invalid_arg "Key.pack_string: key too wide";
  tag ~bytes:n (be_int s 0 n)

let unpack_string k =
  let n = byte_length k in
  String.init n (be_byte k n)

let pair_hi s =
  let n = String.length s in
  if n <= max_packed_bytes then pack_string s
  else if n <= max_pair_bytes then be_int s 0 max_packed_bytes
  else invalid_arg "Key.pair_hi: key too wide"

let pair_lo s =
  let n = String.length s in
  if n <= max_packed_bytes then 0
  else if n <= max_pair_bytes then
    tag ~bytes:(n - max_packed_bytes) (be_int s max_packed_bytes (n - max_packed_bytes))
  else invalid_arg "Key.pair_lo: key too wide"

let pair_split ~off ~bytes =
  let hb = max 0 (min bytes (max_packed_bytes - off)) in
  let lb = bytes - hb in
  (8 * hb, (1 lsl (8 * hb)) - 1, 8 * lb, (1 lsl (8 * lb)) - 1)

let unpack_pair hi lo =
  if lo = 0 then unpack_string hi
  else
    let m = max_packed_bytes in
    let n = byte_length lo in
    String.init (m + n) (fun i -> if i < m then be_byte hi m i else be_byte lo n (i - m))
