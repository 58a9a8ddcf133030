(* Whether freshly configured engines hash through compiled Toeplitz tables
   (the fast path) or the bit-by-bit reference.  The CLI's --compiled-rss
   flag flips this; tests flip it to compare the two paths end to end. *)
let compile_default = ref true

let set_compile_default b = compile_default := b
let compile_default_enabled () = !compile_default

(* One field set, specialized once per engine. *)
type hasher =
  | Fields of Field_set.t * (Packet.Field.t * int) array
      (* compiled engine, whole byte-aligned fields: [(field, nbytes)] in
         input order, each field's value XOR-ed through the key's tables
         straight from [Pkt.field_int] — no Bitvec, no closure, no option *)
  | Bits of Field_set.t
      (* sliced sets and reference engines: serialize the input through
         [Field_set.hash_input]; the property tests' oracle *)

type t = {
  nic : Model.t;
  key : Bitvec.t;
  ckey : Toeplitz.Key.t option Atomic.t;
      (* compiled on first hash, so engines configured but never used for
         software dispatch pay nothing; shared by {!with_reta} copies.  Not
         a [Lazy.t]: forcing one costs a C call per packet, and forcing it
         from two domains at once raises, where two racing compiles of the
         same key are merely redundant *)
  compiled : bool;
  sets : Field_set.t list;
  hashers : hasher array;  (* one per field set, in order *)
  reta : Reta.t;
}

(* Every hashable header field is a whole number of bytes wide, so an
   unsliced set is byte-aligned field by field. *)
let hasher ~compiled s =
  if compiled && not (Field_set.is_sliced s) then
    Fields (s, Array.of_list (List.map (fun (f, bits) -> (f, bits / 8)) (Field_set.slices s)))
  else Bits s

let configure ?(nic = Model.E810) ?reta ?compiled ~key ~sets ~queues () =
  if Bitvec.length key <> 8 * Model.key_bytes nic then
    invalid_arg
      (Printf.sprintf "Rss.configure: key must be %d bytes for %s" (Model.key_bytes nic)
         (Model.name nic));
  List.iter
    (fun s ->
      if not (Model.supports nic s) then
        invalid_arg
          (Format.asprintf "Rss.configure: %s does not support field set %a" (Model.name nic)
             Field_set.pp s))
    sets;
  if queues < 1 || queues > Model.max_queues nic then invalid_arg "Rss.configure: queues";
  let reta =
    match reta with
    | Some r ->
        if Reta.queues r <> queues then invalid_arg "Rss.configure: reta queue count";
        r
    | None -> Reta.create ~size:(Model.reta_size nic) ~queues ()
  in
  let compiled = Option.value ~default:!compile_default compiled in
  let ckey = Atomic.make None in
  let hashers = Array.of_list (List.map (hasher ~compiled) sets) in
  { nic; key; ckey; compiled; sets; hashers; reta }

let random_key rng nic = Bitvec.random rng (8 * Model.key_bytes nic)

let key t = t.key
let compiled_key t =
  match Atomic.get t.ckey with
  | Some ck -> ck
  | None ->
      let ck = Toeplitz.Key.compile t.key in
      Atomic.set t.ckey (Some ck);
      ck
let uses_compiled t = t.compiled
let nic t = t.nic
let sets t = t.sets
let reta t = t.reta
let with_reta t reta = { t with reta }

(* Hash of one set, or -1 when the packet lacks its fields.  Top-level
   and loop-only so the per-packet path allocates nothing. *)
let hash_with t h p =
  match h with
  | Fields (s, plan) ->
      if not (Field_set.matches s p) then -1
      else begin
        Telemetry.Counter.incr Toeplitz.hashes;
        let ck = compiled_key t in
        let acc = ref 0 and pos = ref 0 in
        for j = 0 to Array.length plan - 1 do
          let f, nbytes = Array.unsafe_get plan j in
          acc := !acc lxor Toeplitz.Key.partial ck ~pos:!pos ~nbytes (Packet.Pkt.field_int p f);
          pos := !pos + nbytes
        done;
        !acc
      end
  | Bits s -> (
      match Field_set.hash_input s p with
      | None -> -1
      | Some d ->
          if t.compiled then Toeplitz.Key.hash_int (compiled_key t) d
          else Toeplitz.hash_int ~key:t.key d)

let hash_int t p =
  let hs = t.hashers in
  let h = ref (-1) and i = ref 0 in
  while !h < 0 && !i < Array.length hs do
    h := hash_with t (Array.unsafe_get hs !i) p;
    incr i
  done;
  !h

let dispatch t p =
  let h = hash_int t p in
  if h < 0 then 0 else Reta.lookup t.reta h

let pp fmt t =
  Format.fprintf fmt "@[<v>nic: %s@ key: %s@ sets: %a@ %a@]" (Model.name t.nic)
    (Bitvec.to_hex t.key)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Field_set.pp)
    t.sets Reta.pp t.reta
