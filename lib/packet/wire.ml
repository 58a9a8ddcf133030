(* Wire encoding of packets, routed through the staged codecs of
   Stacks.pkt.  The original hand-written parser/serializer survives as
   [Legacy] — the differential-test oracle for the derived code, exactly
   like lib/dsl keeps the interpreter as the oracle for staged NFs. *)

(* RFC 1071, delegating to the codec's fixup primitive (allocation-free,
   odd tail folded in place — no padded copy). *)
let internet_checksum buf =
  Codec.Checksum.(finish (sum_region buf ~off:0 ~len:(Bytes.length buf) 0))

let eth_header = 14
let ip_header = 20

let l4_header = function Pkt.Tcp -> 20 | Pkt.Udp -> 8 | Pkt.Other _ -> 0

let min_size proto = eth_header + ip_header + l4_header proto

(* ---- the hand-written original, kept as oracle ---------------------- *)

module Legacy = struct
  let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))

  let set_u16 b off v =
    set_u8 b off (v lsr 8);
    set_u8 b (off + 1) v

  let set_u32 b off v =
    set_u16 b off (v lsr 16);
    set_u16 b (off + 2) v

  let set_u48 b off v =
    set_u16 b off (v lsr 32);
    set_u32 b (off + 2) v

  let get_u8 b off = Char.code (Bytes.get b off)
  let get_u16 b off = (get_u8 b off lsl 8) lor get_u8 b (off + 1)
  let get_u32 b off = (get_u16 b off lsl 16) lor get_u16 b (off + 2)
  let get_u48 b off = (get_u16 b off lsl 32) lor get_u32 b (off + 2)

  let serialize (p : Pkt.t) =
    let hdr = min_size p.Pkt.proto in
    if p.Pkt.size < hdr then
      invalid_arg
        (Printf.sprintf "Wire.serialize: frame of %d B below header size %d B" p.Pkt.size
           hdr);
    let b = Bytes.make p.Pkt.size '\000' in
    (* Ethernet *)
    set_u48 b 0 p.Pkt.eth_dst;
    set_u48 b 6 p.Pkt.eth_src;
    set_u16 b 12 p.Pkt.eth_type;
    (* IPv4 *)
    let ip_total = p.Pkt.size - eth_header in
    set_u8 b 14 0x45;
    set_u16 b 16 ip_total;
    set_u8 b 22 64 (* TTL *);
    set_u8 b 23 (Pkt.proto_number p.Pkt.proto);
    set_u32 b 26 p.Pkt.ip_src;
    set_u32 b 30 p.Pkt.ip_dst;
    let ip_csum = internet_checksum (Bytes.sub b eth_header ip_header) in
    set_u16 b 24 ip_csum;
    (* L4 *)
    let l4_off = eth_header + ip_header in
    let l4_len = p.Pkt.size - l4_off in
    (match p.Pkt.proto with
    | Pkt.Tcp ->
        set_u16 b l4_off p.Pkt.src_port;
        set_u16 b (l4_off + 2) p.Pkt.dst_port;
        set_u8 b (l4_off + 12) 0x50 (* data offset = 5 words *)
    | Pkt.Udp ->
        set_u16 b l4_off p.Pkt.src_port;
        set_u16 b (l4_off + 2) p.Pkt.dst_port;
        set_u16 b (l4_off + 4) l4_len
    | Pkt.Other _ -> ());
    (* L4 checksum over pseudo-header + segment *)
    (match p.Pkt.proto with
    | Pkt.Tcp | Pkt.Udp ->
        let pseudo = Bytes.make (12 + l4_len) '\000' in
        set_u32 pseudo 0 p.Pkt.ip_src;
        set_u32 pseudo 4 p.Pkt.ip_dst;
        set_u8 pseudo 9 (Pkt.proto_number p.Pkt.proto);
        set_u16 pseudo 10 l4_len;
        Bytes.blit b l4_off pseudo 12 l4_len;
        let csum = internet_checksum pseudo in
        let csum_off = if p.Pkt.proto = Pkt.Tcp then l4_off + 16 else l4_off + 6 in
        set_u16 b csum_off (if csum = 0 then 0xffff else csum)
    | Pkt.Other _ -> ());
    b

  let parse ?(port = 0) ?(ts_ns = 0) b =
    let n = Bytes.length b in
    if n < eth_header then Error "frame shorter than an Ethernet header"
    else
      let eth_dst = get_u48 b 0 and eth_src = get_u48 b 6 and eth_type = get_u16 b 12 in
      if eth_type <> Pkt.ipv4_ethertype then Error "unsupported ethertype"
      else if n < eth_header + ip_header then Error "frame truncated inside the IPv4 header"
      else
        let proto = Pkt.proto_of_number (get_u8 b 23) in
        let ip_src = get_u32 b 26 and ip_dst = get_u32 b 30 in
        let l4_off = eth_header + ((get_u8 b 14 land 0xf) * 4) in
        let needs = match proto with Pkt.Tcp | Pkt.Udp -> 4 | Pkt.Other _ -> 0 in
        if n < l4_off + needs then Error "frame truncated inside the L4 header"
        else
          let src_port, dst_port =
            match proto with
            | Pkt.Tcp | Pkt.Udp -> (get_u16 b l4_off, get_u16 b (l4_off + 2))
            | Pkt.Other _ -> (0, 0)
          in
          Ok
            {
              Pkt.port;
              eth_src;
              eth_dst;
              eth_type;
              ip_src;
              ip_dst;
              proto;
              src_port;
              dst_port;
              encap = None;
              size = n;
              ts_ns;
            }
end

(* ---- staged path ---------------------------------------------------- *)

let c = Stacks.pkt

module Sid = Stacks.Sid

let shape_for (p : Pkt.t) =
  match p.Pkt.encap with
  | None -> (
      match p.Pkt.proto with
      | Pkt.Tcp -> Sid.tcp
      | Pkt.Udp -> Sid.udp
      | Pkt.Other _ -> Sid.ipv4)
  | Some e -> (
      match (e.Pkt.kind, e.Pkt.in_proto) with
      | Pkt.Vxlan, Pkt.Tcp -> Sid.vxlan_tcp
      | Pkt.Vxlan, Pkt.Udp -> Sid.vxlan_udp
      | Pkt.Vxlan, Pkt.Other _ -> Sid.vxlan_ip
      | Pkt.Gre, Pkt.Tcp -> Sid.gre_tcp
      | Pkt.Gre, Pkt.Udp -> Sid.gre_udp
      | Pkt.Gre, Pkt.Other _ -> Sid.gre_ip)

let header_size p = Codec.encode_fixed_len c ~shape:(shape_for p)

let serialize (p : Pkt.t) =
  let shape = shape_for p in
  let hdr = Codec.encode_fixed_len c ~shape in
  if p.Pkt.size < hdr then
    invalid_arg
      (Printf.sprintf "Wire.serialize: frame of %d B below header size %d B" p.Pkt.size hdr);
  let outer =
    [
      ("eth.dst", p.Pkt.eth_dst);
      ("eth.src", p.Pkt.eth_src);
      ("ipv4.ttl", 64);
      ("ipv4.proto", Pkt.proto_number p.Pkt.proto);
      ("ipv4.src", p.Pkt.ip_src);
      ("ipv4.dst", p.Pkt.ip_dst);
      ("tcp.sport", p.Pkt.src_port);
      ("tcp.dport", p.Pkt.dst_port);
      ("udp.sport", p.Pkt.src_port);
      ("udp.dport", p.Pkt.dst_port);
    ]
  in
  let fields =
    match p.Pkt.encap with
    | None -> outer
    | Some e ->
        outer
        @ [
            ("vxlan.vni", e.Pkt.tunnel_id land 0xffffff);
            ("gre.key", e.Pkt.tunnel_id);
            ("ieth.dst", e.Pkt.in_eth_dst);
            ("ieth.src", e.Pkt.in_eth_src);
            ("iipv4.ttl", 64);
            ("iipv4.proto", Pkt.proto_number e.Pkt.in_proto);
            ("iipv4.src", e.Pkt.in_ip_src);
            ("iipv4.dst", e.Pkt.in_ip_dst);
            ("itcp.sport", e.Pkt.in_src_port);
            ("itcp.dport", e.Pkt.in_dst_port);
            ("iudp.sport", e.Pkt.in_src_port);
            ("iudp.dport", e.Pkt.in_dst_port);
          ]
  in
  Codec.encode c ~shape ~payload_len:(p.Pkt.size - hdr) fields

(* Staged getters, one array per path, indexed by shape id. *)
let g_eth_src = Codec.getter c "eth.src"
let g_eth_dst = Codec.getter c "eth.dst"
let g_ip_src = Codec.getter c "ipv4.src"
let g_ip_dst = Codec.getter c "ipv4.dst"
let g_ip_proto = Codec.getter c "ipv4.proto"
let g_tcp_sport = Codec.getter c "tcp.sport"
let g_tcp_dport = Codec.getter c "tcp.dport"
let g_udp_sport = Codec.getter c "udp.sport"
let g_udp_dport = Codec.getter c "udp.dport"
let g_vni = Codec.getter c "vxlan.vni"
let g_gre_key = Codec.getter c "gre.key"
let g_ieth_src = Codec.getter c "ieth.src"
let g_ieth_dst = Codec.getter c "ieth.dst"
let g_iip_src = Codec.getter c "iipv4.src"
let g_iip_dst = Codec.getter c "iipv4.dst"
let g_iip_proto = Codec.getter c "iipv4.proto"
let g_itcp_sport = Codec.getter c "itcp.sport"
let g_itcp_dport = Codec.getter c "itcp.dport"
let g_iudp_sport = Codec.getter c "iudp.sport"
let g_iudp_dport = Codec.getter c "iudp.dport"

(* Per-shape Pkt builders with the getter closures prebound at module
   init — the per-frame path is one classification plus direct closure
   calls, no array dispatch. *)
let builders : (int -> int -> bytes -> Pkt.t) array =
  Array.init (Codec.shape_count c) (fun sid ->
      let ges = g_eth_src.(sid)
      and ged = g_eth_dst.(sid)
      and gis = g_ip_src.(sid)
      and gid = g_ip_dst.(sid) in
      let base ~proto ~sport ~dport ~encap port ts_ns b =
        {
          Pkt.port;
          eth_src = ges b;
          eth_dst = ged b;
          eth_type = Pkt.ipv4_ethertype;
          ip_src = gis b;
          ip_dst = gid b;
          proto;
          src_port = sport;
          dst_port = dport;
          encap;
          size = Bytes.length b;
          ts_ns;
        }
      in
      if sid = Sid.tcp then (
        let gsp = g_tcp_sport.(sid) and gdp = g_tcp_dport.(sid) in
        fun port ts_ns b ->
          base ~proto:Pkt.Tcp ~sport:(gsp b) ~dport:(gdp b) ~encap:None port ts_ns b)
      else if sid = Sid.udp then (
        let gsp = g_udp_sport.(sid) and gdp = g_udp_dport.(sid) in
        fun port ts_ns b ->
          base ~proto:Pkt.Udp ~sport:(gsp b) ~dport:(gdp b) ~encap:None port ts_ns b)
      else if sid = Sid.ipv4 then (
        let gpr = g_ip_proto.(sid) in
        fun port ts_ns b ->
          base ~proto:(Pkt.proto_of_number (gpr b)) ~sport:0 ~dport:0 ~encap:None port
            ts_ns b)
      else if sid = Sid.vxlan_tcp || sid = Sid.vxlan_udp || sid = Sid.vxlan_ip then (
        let gsp = g_udp_sport.(sid)
        and gvni = g_vni.(sid)
        and gies = g_ieth_src.(sid)
        and gied = g_ieth_dst.(sid)
        and giis = g_iip_src.(sid)
        and giid = g_iip_dst.(sid) in
        (* one builder per inner shape, each passing the inner protocol
           and ports straight in: no per-frame tuple *)
        let frame in_proto isp idp port ts_ns b =
          base ~proto:Pkt.Udp ~sport:(gsp b) ~dport:Stacks.vxlan_port
            ~encap:
              (Some
                 {
                   Pkt.kind = Pkt.Vxlan;
                   tunnel_id = gvni b;
                   in_eth_src = gies b;
                   in_eth_dst = gied b;
                   in_ip_src = giis b;
                   in_ip_dst = giid b;
                   in_proto;
                   in_src_port = isp;
                   in_dst_port = idp;
                 })
            port ts_ns b
        in
        if sid = Sid.vxlan_tcp then (
          let gip = g_itcp_sport.(sid) and gid' = g_itcp_dport.(sid) in
          fun port ts_ns b -> frame Pkt.Tcp (gip b) (gid' b) port ts_ns b)
        else if sid = Sid.vxlan_udp then (
          let gip = g_iudp_sport.(sid) and gid' = g_iudp_dport.(sid) in
          fun port ts_ns b -> frame Pkt.Udp (gip b) (gid' b) port ts_ns b)
        else
          let gipr = g_iip_proto.(sid) in
          fun port ts_ns b -> frame (Pkt.proto_of_number (gipr b)) 0 0 port ts_ns b)
      else if sid = Sid.gre_tcp || sid = Sid.gre_udp || sid = Sid.gre_ip then (
        let gkey = g_gre_key.(sid) and giis = g_iip_src.(sid) and giid = g_iip_dst.(sid) in
        let frame in_proto isp idp port ts_ns b =
          base ~proto:(Pkt.Other Stacks.gre_proto) ~sport:0 ~dport:0
            ~encap:
              (Some
                 {
                   Pkt.kind = Pkt.Gre;
                   tunnel_id = gkey b;
                   in_eth_src = 0;
                   in_eth_dst = 0;
                   in_ip_src = giis b;
                   in_ip_dst = giid b;
                   in_proto;
                   in_src_port = isp;
                   in_dst_port = idp;
                 })
            port ts_ns b
        in
        if sid = Sid.gre_tcp then (
          let gip = g_itcp_sport.(sid) and gid' = g_itcp_dport.(sid) in
          fun port ts_ns b -> frame Pkt.Tcp (gip b) (gid' b) port ts_ns b)
        else if sid = Sid.gre_udp then (
          let gip = g_iudp_sport.(sid) and gid' = g_iudp_dport.(sid) in
          fun port ts_ns b -> frame Pkt.Udp (gip b) (gid' b) port ts_ns b)
        else
          let gipr = g_iip_proto.(sid) in
          fun port ts_ns b -> frame (Pkt.proto_of_number (gipr b)) 0 0 port ts_ns b)
      else
        fun _ _ _ ->
          invalid_arg ("Wire.parse_typed: unhandled shape " ^ Codec.shape_name c sid))

let parse_typed ?(port = 0) ?(ts_ns = 0) b =
  let sid = Codec.shape_of c b in
  if sid < 0 then Error (Codec.error_of c b) else Ok (builders.(sid) port ts_ns b)

let parse ?port ?ts_ns b =
  match parse_typed ?port ?ts_ns b with
  | Ok p -> Ok p
  | Error e -> Error (Codec.error_to_string e)
