(* State-compute replication, dynamic half (the static analysis lives in
   {!Maestro.Scrspec}).  A prepared program stages the NF's write-slice
   once, over the digest layout itself; each core binds it to its own
   full replica and replays foreign packets straight from their digest
   rows, building no packet.

   Digests travel as flat [int] segments — one slot per header field the
   slice reads, plus optional port / frame-length / timestamp slots — so
   a batch's digest is a single [int array] pushed over the existing SPSC
   rings with no per-packet boxing. *)

(* How replay runs: the slice compiled over the digest rows, or — the
   [~compiled:false] oracle — the interpreter on the pseudo-packet
   {!decode} rebuilds. *)
type replay = Rows of Dsl.Compile.row_program | Decoded of Dsl.Check.info

(* The digest layout is staged once, in [prepare]: [fields.(j)] is the
   header field in slot [j], and every [Pkt.t] / [encap] field {!decode}
   rebuilds has its slot index ([-1]: not in the digest, use the
   default).  Encode and decode then read slots straight through — no
   field-list walk, no closure, no [ref] per packet. *)
type t = {
  spec : Maestro.Scrspec.t;
  replay : replay;
  ints_per_pkt : int;
  fields : Packet.Field.t array;
  s_port : int;
  s_eth_src : int;
  s_eth_dst : int;
  s_eth_type : int;
  s_ip_src : int;
  s_ip_dst : int;
  s_proto : int;
  s_src_port : int;
  s_dst_port : int;
  s_tunnel_id : int;
  s_in_ip_src : int;
  s_in_ip_dst : int;
  s_in_proto : int;
  s_in_src_port : int;
  s_in_dst_port : int;
  s_size : int;
  s_ts_ns : int;
  has_inner : bool;  (** some inner field is in the digest *)
}

let spec t = t.spec
let ints_per_pkt t = t.ints_per_pkt
let digest_wire_bytes t = t.spec.Maestro.Scrspec.digest_bytes

let prepare ?compiled (spec : Maestro.Scrspec.t) =
  let slice = spec.Maestro.Scrspec.slice in
  let info =
    match Dsl.Check.check slice with
    | Ok info -> info
    | Error errs ->
        invalid_arg
          (Printf.sprintf "Scr.prepare: write-slice of %s fails validation: %s"
             spec.Maestro.Scrspec.nf.Dsl.Ast.name
             (String.concat "; " errs))
  in
  let fields = Array.of_list spec.Maestro.Scrspec.fields in
  let nfields = Array.length fields in
  (* the last slot carrying a field wins, as a sequential decode would *)
  let slot_of f =
    let s = ref (-1) in
    Array.iteri (fun j g -> if g = f then s := j) fields;
    !s
  in
  let compiled = match compiled with Some b -> b | None -> Dsl.Compile.default_enabled () in
  (* port / length / timestamp follow the header fields, in that order *)
  let next = ref nfields in
  let extra needed =
    if needed then begin
      let s = !next in
      incr next;
      s
    end
    else -1
  in
  let s_port = extra spec.Maestro.Scrspec.needs_port in
  let s_size = extra spec.Maestro.Scrspec.needs_len in
  let s_ts_ns = extra spec.Maestro.Scrspec.needs_ts in
  let module F = Packet.Field in
  let s_tunnel_id = slot_of F.Tunnel_id
  and s_in_ip_src = slot_of F.Inner_ip_src
  and s_in_ip_dst = slot_of F.Inner_ip_dst
  and s_in_proto = slot_of F.Inner_ip_proto
  and s_in_src_port = slot_of F.Inner_src_port
  and s_in_dst_port = slot_of F.Inner_dst_port in
  let stride = !next in
  {
    spec;
    replay =
      (if compiled then
         Rows
           (Dsl.Compile.stage_rows slice info
              {
                Dsl.Compile.stride;
                fields;
                port_slot = s_port;
                len_slot = s_size;
                ts_slot = s_ts_ns;
              })
       else Decoded info);
    ints_per_pkt = stride;
    fields;
    s_port;
    s_eth_src = slot_of F.Eth_src;
    s_eth_dst = slot_of F.Eth_dst;
    s_eth_type = slot_of F.Eth_type;
    s_ip_src = slot_of F.Ip_src;
    s_ip_dst = slot_of F.Ip_dst;
    s_proto = slot_of F.Ip_proto;
    s_src_port = slot_of F.Src_port;
    s_dst_port = slot_of F.Dst_port;
    s_tunnel_id;
    s_in_ip_src;
    s_in_ip_dst;
    s_in_proto;
    s_in_src_port;
    s_in_dst_port;
    s_size;
    s_ts_ns;
    has_inner =
      List.exists (fun s -> s >= 0)
        [ s_tunnel_id; s_in_ip_src; s_in_ip_dst; s_in_proto; s_in_src_port; s_in_dst_port ];
  }

(* --- encoding ---------------------------------------------------------------- *)

let encode t pkt buf off =
  let fields = t.fields in
  for j = 0 to Array.length fields - 1 do
    buf.(off + j) <- Packet.Pkt.field_int pkt fields.(j)
  done;
  if t.s_port >= 0 then buf.(off + t.s_port) <- pkt.Packet.Pkt.port;
  if t.s_size >= 0 then buf.(off + t.s_size) <- pkt.Packet.Pkt.size;
  if t.s_ts_ns >= 0 then buf.(off + t.s_ts_ns) <- pkt.Packet.Pkt.ts_ns

let encode_batch t pkts ~lo ~len =
  let buf = Array.make (max 1 (len * t.ints_per_pkt)) 0 in
  for j = 0 to len - 1 do
    encode t pkts.(lo + j) buf (j * t.ints_per_pkt)
  done;
  buf

(* --- decoding ---------------------------------------------------------------- *)

(* Slot [s] of the segment at [off], or [default] when the field is not
   in the digest.  Top-level and closed, so a read is a direct call. *)
let slot buf off s default = if s < 0 then default else buf.(off + s)

(* Rebuild a pseudo-packet from one digest segment, for the interpreter
   oracle and for callers that must re-hash a logged packet.  Fields
   absent from the digest are never read by the slice, so their defaults
   are irrelevant to the replayed state trajectory. *)
let decode t buf off =
  {
    Packet.Pkt.port = slot buf off t.s_port 0;
    eth_src = slot buf off t.s_eth_src 0;
    eth_dst = slot buf off t.s_eth_dst 0;
    eth_type = slot buf off t.s_eth_type Packet.Pkt.ipv4_ethertype;
    ip_src = slot buf off t.s_ip_src 0;
    ip_dst = slot buf off t.s_ip_dst 0;
    proto = Packet.Pkt.proto_of_number (slot buf off t.s_proto 6 (* TCP *));
    src_port = slot buf off t.s_src_port 0;
    dst_port = slot buf off t.s_dst_port 0;
    encap =
      (if t.has_inner then
         Some
           {
             Packet.Pkt.default_encap with
             tunnel_id = slot buf off t.s_tunnel_id 0;
             in_ip_src = slot buf off t.s_in_ip_src 0;
             in_ip_dst = slot buf off t.s_in_ip_dst 0;
             in_proto = Packet.Pkt.proto_of_number (slot buf off t.s_in_proto 6);
             in_src_port = slot buf off t.s_in_src_port 0;
             in_dst_port = slot buf off t.s_in_dst_port 0;
           }
       else None);
    size = slot buf off t.s_size 64;
    ts_ns = slot buf off t.s_ts_ns 0;
  }

(* --- replay ------------------------------------------------------------------ *)

type replayer =
  | R_rows of t * Dsl.Compile.row_bound
  | R_decoded of t * Dsl.Check.info * Dsl.Instance.t

let bind prog instance =
  match prog.replay with
  | Rows p -> R_rows (prog, Dsl.Compile.bind_rows p instance)
  | Decoded info -> R_decoded (prog, info, instance)

let apply r buf off =
  match r with
  | R_rows (_, b) -> Dsl.Compile.run_row b buf off
  | R_decoded (t, info, inst) ->
      ignore (Dsl.Interp.process t.spec.Maestro.Scrspec.slice info inst (decode t buf off))

let apply_batch r buf ~npkts =
  let stride = match r with R_rows (t, _) | R_decoded (t, _, _) -> t.ints_per_pkt in
  for j = 0 to npkts - 1 do
    apply r buf (j * stride)
  done

(* --- replica comparison ------------------------------------------------------ *)

let chain_dump c =
  let acc = ref [] in
  State.Dchain.iter_allocated c (fun idx touch -> acc := (idx, touch) :: !acc);
  List.rev !acc

let obj_equal a b =
  match (a, b) with
  | Dsl.Instance.O_map ma, Dsl.Instance.O_map mb ->
      List.sort compare (State.Map_s.entries ma)
      = List.sort compare (State.Map_s.entries mb)
  | Dsl.Instance.O_vector (_, sa), Dsl.Instance.O_vector (_, sb) -> sa = sb
  | Dsl.Instance.O_chain ca, Dsl.Instance.O_chain cb -> chain_dump ca = chain_dump cb
  | Dsl.Instance.O_sketch sa, Dsl.Instance.O_sketch sb -> State.Sketch.equal sa sb
  | _ -> false

let replica_equal (spec : Maestro.Scrspec.t) a b =
  List.for_all
    (fun obj -> obj_equal (Dsl.Instance.find a obj) (Dsl.Instance.find b obj))
    spec.Maestro.Scrspec.written_objects
