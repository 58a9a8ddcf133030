let key_bits_for_input n = n + 32

let hashes = Telemetry.Counter.make "toeplitz.hashes" ~doc:"Toeplitz hashes computed"

let hash ~key d =
  Telemetry.Counter.incr hashes;
  let kn = Bitvec.length key and dn = Bitvec.length d in
  if kn < key_bits_for_input dn then invalid_arg "Toeplitz.hash: key too short for input";
  let acc = ref 0 in
  (* window = key bits [x .. x+31] when input bit x is set *)
  for x = 0 to dn - 1 do
    if Bitvec.get d x then begin
      let w = ref 0 in
      for b = 0 to 31 do
        w := (!w lsl 1) lor (if Bitvec.get key (x + b) then 1 else 0)
      done;
      acc := !acc lxor !w
    end
  done;
  Int32.of_int !acc

let hash_int ~key d = Int32.to_int (hash ~key d) land 0xffffffff

(* Table-driven fast path (DPDK rte_thash style).  For every input *byte*
   position we precompute a 256-entry table of 32-bit partial hashes: entry
   [b] is the XOR of the key windows selected by the set bits of [b].  A
   hash is then one table lookup and one XOR per input byte instead of up to
   eight 32-bit window extractions — the bit-by-bit [hash] above stays as
   the oracle the property tests compare against. *)
module Key = struct
  type t = {
    key : Bitvec.t;
    max_input_bits : int; (* largest input this key can hash *)
    tables : int array array; (* tables.(i).(b): partial hash of byte value b at byte i *)
  }

  let compile key =
    let kn = Bitvec.length key in
    if kn < 32 then invalid_arg "Toeplitz.Key.compile: key shorter than 32 bits";
    let max_input_bits = kn - 32 in
    let nbytes = (max_input_bits + 7) / 8 in
    (* window.(x) = key bits [x .. x+31], computed incrementally *)
    let windows = Array.make (8 * nbytes) 0 in
    let w = ref 0 in
    for b = 0 to 31 do
      w := (!w lsl 1) lor (if Bitvec.get key b then 1 else 0)
    done;
    for x = 0 to max_input_bits - 1 do
      windows.(x) <- !w;
      w := ((!w lsl 1) land 0xffffffff) lor (if Bitvec.get key (x + 32) then 1 else 0)
    done;
    (* positions past [max_input_bits] keep window 0: they are only ever
       indexed by the zero padding bits of a ragged last byte, which never
       select an entry *)
    let tables =
      Array.init nbytes (fun i ->
          let t = Array.make 256 0 in
          (* t.(v) = t.(v with lowest set bit cleared) xor window of that bit;
             bit (1 lsl k) of the byte value is input bit 8i + (7-k) *)
          for v = 1 to 255 do
            let low = v land -v in
            let k = ref 0 in
            while low lsr !k <> 1 do
              incr k
            done;
            t.(v) <- t.(v land (v - 1)) lxor windows.((8 * i) + (7 - !k))
          done;
          t)
    in
    { key; max_input_bits; tables }

  let key t = t.key
  let max_input_bits t = t.max_input_bits

  let hash t d =
    Telemetry.Counter.incr hashes;
    let dn = Bitvec.length d in
    if dn > t.max_input_bits then invalid_arg "Toeplitz.Key.hash: key too short for input";
    let acc = ref 0 in
    for i = 0 to Bitvec.bytes_length d - 1 do
      acc := !acc lxor Array.unsafe_get t.tables.(i) (Bitvec.byte d i)
    done;
    Int32.of_int !acc

  let hash_int t d = Int32.to_int (hash t d) land 0xffffffff

  (* entry for the low byte of [v] in the table of input byte [i] *)
  let[@inline] lookup (tables : int array array) i v =
    Array.unsafe_get (Array.unsafe_get tables i) (v land 0xff)

  (* Allocation-free building block for per-packet hashing: the
     contribution of one big-endian [nbytes]-byte value sitting at input
     byte [pos].  Toeplitz is linear over GF(2), so XOR-ing the partials
     of consecutive fields equals {!hash_int} of their concatenation —
     without ever materializing the Bitvec.  Uncounted: the caller counts
     one [toeplitz.hashes] per complete hash. *)
  let partial t ~pos ~nbytes v =
    if pos < 0 || pos + nbytes > Array.length t.tables then
      invalid_arg "Toeplitz.Key.partial: key too short for input";
    (* the hashable header fields are 1, 2 and 4 bytes wide: unrolled,
       ~20% less time per dispatch than the byte loop (2-vCPU x86-64) *)
    match nbytes with
    | 4 ->
        lookup t.tables pos (v lsr 24)
        lxor lookup t.tables (pos + 1) (v lsr 16)
        lxor lookup t.tables (pos + 2) (v lsr 8)
        lxor lookup t.tables (pos + 3) v
    | 2 -> lookup t.tables pos (v lsr 8) lxor lookup t.tables (pos + 1) v
    | 1 -> lookup t.tables pos v
    | _ ->
        let acc = ref 0 in
        for k = 0 to nbytes - 1 do
          acc := !acc lxor lookup t.tables (pos + k) (v lsr (8 * (nbytes - 1 - k)))
        done;
        !acc
end

(* Key published in the Microsoft RSS hash verification suite and used as
   DPDK's default. *)
let microsoft_test_key =
  Bitvec.of_hex
    "6d5a56da255b0ec24167253d43a38fb0d0ca2bcbae7b30b477cb2da38030f20c6a42b73bbeac01fa"
