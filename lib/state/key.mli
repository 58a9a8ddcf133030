(** Packed representation of short container keys.

    The stateful containers are logically keyed by byte strings (the
    encoding [Dsl.Ast.key_of_parts] produces).  Two packed forms let the
    compiled per-packet path use them without allocating:

    - a key of at most {!max_packed_bytes} bytes packs losslessly into one
      tagged, immediate OCaml int — byte content in the low bits, byte
      length above them.  Sketches hash this form.
    - a key of at most {!max_pair_bytes} bytes packs into a pair of
      immediate ints [(hi, lo)], the form map keys take.  A key of at
      most 7 bytes is [(pack_string s, 0)]; a key of 8 to 14 bytes puts
      its first 7 bytes, untagged, in [hi] and its remaining [n - 7]
      bytes, tagged with that length, in [lo].  Since such an [lo] is
      never 0, the two shapes never collide, and a firewall's 12-byte
      5-tuple is as cheap to look up as a 4-byte tunnel id.

    [pack_string]/[unpack_string] and [pair_hi]/[pair_lo]/[unpack_pair]
    are exact inverses on the strings they accept, which is what keeps
    the packed and string views of one container consistent. *)

val max_packed_bytes : int
(** 7: the widest key that packs into a 62-bit tagged int. *)

val max_pair_bytes : int
(** 14: the widest key that packs into a [(hi, lo)] pair. *)

val tag_shift : int
(** Bit position of the length tag ([8 * max_packed_bytes]). *)

val fits : string -> bool
(** Whether a string key packs into one int. *)

val fits_pair : string -> bool
(** Whether a string key packs into a pair. *)

val tag : bytes:int -> int -> int
(** [tag ~bytes v] builds the packed form of a [bytes]-byte key whose
    big-endian byte content, read as an integer, is [v]. *)

val byte_length : int -> int
(** Byte length of a packed key. *)

val pack_string : string -> int
(** Raises [Invalid_argument] when the key does not {!fits}. *)

val unpack_string : int -> string
(** Exact inverse of {!pack_string}. *)

val pair_hi : string -> int
(** The [hi] half of a key's pair form.  Raises [Invalid_argument] when
    the key does not {!fits_pair}. *)

val pair_lo : string -> int
(** The [lo] half: [0] for a key that {!fits}, a tagged int otherwise.
    Raises [Invalid_argument] when the key does not {!fits_pair}. *)

val unpack_pair : int -> int -> string
(** [unpack_pair (pair_hi s) (pair_lo s) = s]. *)

val pair_split : off:int -> bytes:int -> int * int * int * int
(** How a [bytes]-byte part at byte offset [off] of a key of at most
    {!max_pair_bytes} bytes divides between the halves of its pair: the
    bytes before offset 7 go to [hi], the rest to [lo].  Returns
    [(hi_shift, hi_mask, lo_shift, lo_mask)]; with [v] the part's value,
    [hi' = (hi lsl hi_shift) lor ((v lsr lo_shift) land hi_mask)] and
    [lo' = (lo lsl lo_shift) lor (v land lo_mask)] fold it in.  A zero
    shift means the part adds nothing to that half.  Folding every part
    of an [n]-byte key from [(0, 0)] gives the pair up to tagging: for
    [n <= 7] it is [(tag ~bytes:n hi, 0)], otherwise
    [(hi, tag ~bytes:(n - 7) lo)]. *)
