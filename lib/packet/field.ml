type t =
  | Eth_src
  | Eth_dst
  | Eth_type
  | Ip_src
  | Ip_dst
  | Ip_proto
  | Src_port
  | Dst_port
  | Tunnel_id
  | Inner_ip_src
  | Inner_ip_dst
  | Inner_ip_proto
  | Inner_src_port
  | Inner_dst_port

let all =
  [
    Eth_src;
    Eth_dst;
    Eth_type;
    Ip_src;
    Ip_dst;
    Ip_proto;
    Src_port;
    Dst_port;
    Tunnel_id;
    Inner_ip_src;
    Inner_ip_dst;
    Inner_ip_proto;
    Inner_src_port;
    Inner_dst_port;
  ]

let width = function
  | Eth_src | Eth_dst -> 48
  | Eth_type -> 16
  | Ip_src | Ip_dst | Inner_ip_src | Inner_ip_dst -> 32
  | Ip_proto | Inner_ip_proto -> 8
  | Src_port | Dst_port | Inner_src_port | Inner_dst_port -> 16
  | Tunnel_id -> 32

let rss_capable = function
  | Eth_src | Eth_dst | Eth_type -> false
  | Ip_src | Ip_dst | Ip_proto | Src_port | Dst_port -> true
  (* The tunnel id lives in the VXLAN/GRE shim, which no modeled NIC's
     RSS field sets reach — keying state on it forces a ladder descent
     exactly like MAC-keyed state (rule R4). *)
  | Tunnel_id -> false
  (* Inner headers of terminated tunnels are hashable: the inner-header
     inner-header field sets ([Nic.Field_set.inner_ipv4_tcp]) hash them. *)
  | Inner_ip_src | Inner_ip_dst | Inner_ip_proto | Inner_src_port | Inner_dst_port -> true

let symmetric_counterpart = function
  | Ip_src -> Some Ip_dst
  | Ip_dst -> Some Ip_src
  | Src_port -> Some Dst_port
  | Dst_port -> Some Src_port
  | Eth_src -> Some Eth_dst
  | Eth_dst -> Some Eth_src
  | Inner_ip_src -> Some Inner_ip_dst
  | Inner_ip_dst -> Some Inner_ip_src
  | Inner_src_port -> Some Inner_dst_port
  | Inner_dst_port -> Some Inner_src_port
  | Eth_type | Ip_proto | Inner_ip_proto | Tunnel_id -> None

let to_string = function
  | Eth_src -> "eth.src"
  | Eth_dst -> "eth.dst"
  | Eth_type -> "eth.type"
  | Ip_src -> "ip.src"
  | Ip_dst -> "ip.dst"
  | Ip_proto -> "ip.proto"
  | Src_port -> "l4.sport"
  | Dst_port -> "l4.dport"
  | Tunnel_id -> "tunnel.id"
  | Inner_ip_src -> "inner.src"
  | Inner_ip_dst -> "inner.dst"
  | Inner_ip_proto -> "inner.proto"
  | Inner_src_port -> "inner.sport"
  | Inner_dst_port -> "inner.dport"

let of_string s = List.find_opt (fun f -> to_string f = s) all
let pp fmt f = Format.pp_print_string fmt (to_string f)
let equal = ( = )
let compare = Stdlib.compare
