type t = {
  pkts : int;
  reads_per_pkt : float;
  writes_per_pkt : float;
  tm_writes_per_pkt : float;
  chain_ops_per_pkt : float;
  write_pkt_fraction : float;
  distinct_flows : int;
  effective_flows : float;
  avg_frame_bytes : float;
  bytes_per_flow : float;
  flow_capacity : int;
  fixed_state_bytes : float;
  drops : int;
}

let state_footprint (nf : Dsl.Ast.t) =
  (* marginal bytes per tracked flow vs fixed bytes, from the declarations *)
  let per_flow = ref 0.0 and fixed = ref 0.0 in
  let capacity = ref 0 in
  List.iter
    (fun d ->
      match d with
      | Dsl.Ast.Decl_map { capacity = c; _ } ->
          capacity := (if !capacity = 0 then c else min !capacity c);
          per_flow := !per_flow +. 24.0
      | Dsl.Ast.Decl_vector { layout; _ } ->
          let bytes = (List.fold_left (fun a (_, w) -> a + w) 0 layout + 7) / 8 in
          per_flow := !per_flow +. float_of_int bytes
      | Dsl.Ast.Decl_chain _ -> per_flow := !per_flow +. 16.0
      | Dsl.Ast.Decl_sketch { depth; width; _ } ->
          fixed := !fixed +. float_of_int (4 * depth * width))
    nf.Dsl.Ast.state;
  (!per_flow, !fixed, (if !capacity = 0 then max_int else !capacity))

let of_trace ?(skip = 0) nf pkts =
  let info = Dsl.Check.check_exn nf in
  let runner = Dsl.Compile.make_runner nf info (Dsl.Instance.create nf) in
  let n = Array.length pkts - skip in
  if n < 1 then invalid_arg "Profile.of_trace: nothing left after skip";
  let reads = ref 0 and writes = ref 0 and tm_writes = ref 0 in
  let chain_ops = ref 0 and write_pkts = ref 0 and drops = ref 0 in
  let flow_counts = Hashtbl.create 1024 in
  let bytes = ref 0 in
  Array.iteri
    (fun pkt_index pkt ->
      if pkt_index < skip then
        ignore (Dsl.Compile.run runner pkt)
      else begin
      bytes := !bytes + pkt.Packet.Pkt.size;
      let flow = Packet.Flow.normalize (Packet.Flow.of_pkt pkt) in
      Hashtbl.replace flow_counts flow
        (1 + Option.value ~default:0 (Hashtbl.find_opt flow_counts flow));
      let wrote = ref false in
      let on_op (e : Dsl.Interp.op_event) =
        (match e.Dsl.Interp.kind with
        | Dsl.Interp.Op_chain_alloc | Dsl.Interp.Op_chain_rejuv | Dsl.Interp.Op_chain_expire ->
            incr chain_ops
        | _ -> ());
        (* transactional view: every mutation is a transactional write *)
        let tm_write =
          match e.Dsl.Interp.kind with
          | Dsl.Interp.Op_chain_rejuv -> true
          | Dsl.Interp.Op_chain_expire -> e.Dsl.Interp.expired > 0
          | _ -> e.Dsl.Interp.write
        in
        if Dsl.Interp.lock_write e then begin
          incr writes;
          wrote := true
        end
        else incr reads;
        if tm_write then incr tm_writes
      in
      (match Dsl.Compile.run ~on_op runner pkt with
      | Dsl.Interp.Dropped -> incr drops
      | Dsl.Interp.Fwd _ -> ());
      if !wrote then incr write_pkts
      end)
    pkts;
  let entropy =
    let total = float_of_int n in
    Hashtbl.fold
      (fun _ c acc ->
        let p = float_of_int c /. total in
        acc -. (p *. Float.log p))
      flow_counts 0.0
  in
  let per_flow, fixed, capacity = state_footprint nf in
  let fn = float_of_int (max 1 n) in
  {
    pkts = n;
    reads_per_pkt = float_of_int !reads /. fn;
    writes_per_pkt = float_of_int !writes /. fn;
    tm_writes_per_pkt = float_of_int !tm_writes /. fn;
    chain_ops_per_pkt = float_of_int !chain_ops /. fn;
    write_pkt_fraction = float_of_int !write_pkts /. fn;
    distinct_flows = Hashtbl.length flow_counts;
    effective_flows = Float.exp entropy;
    avg_frame_bytes = float_of_int !bytes /. fn;
    bytes_per_flow = per_flow;
    flow_capacity = capacity;
    fixed_state_bytes = fixed;
    drops = !drops;
  }

let pp fmt t =
  Format.fprintf fmt
    "pkts %d; r/pkt %.2f; w/pkt %.2f (tm %.2f); write-pkt %.1f%%; flows %d (eff %.0f); avg \
     %.0fB; %.0fB/flow + %.0fB fixed; drops %d"
    t.pkts t.reads_per_pkt t.writes_per_pkt t.tm_writes_per_pkt
    (100.0 *. t.write_pkt_fraction)
    t.distinct_flows t.effective_flows t.avg_frame_bytes t.bytes_per_flow t.fixed_state_bytes
    t.drops
