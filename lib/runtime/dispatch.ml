type t = {
  engines : Nic.Rss.t array; (* one per port, each carrying its table *)
  loads : float array; (* per-bucket packets, indexed like the tables *)
  counts : int array; (* per-core packets *)
}

let create ?live (plan : Maestro.Plan.t) =
  let engines =
    Array.init plan.Maestro.Plan.nf.Dsl.Ast.devices (fun port ->
        let e = Maestro.Plan.rss_engine plan port in
        match live with
        | Some live when not (Array.for_all Fun.id live) ->
            Nic.Rss.with_reta e (Nic.Reta.remap (Nic.Rss.reta e) ~live)
        | _ -> e)
  in
  let size = Array.fold_left (fun acc e -> max acc (Nic.Reta.size (Nic.Rss.reta e))) 1 engines in
  { engines; loads = Array.make size 0.0; counts = Array.make plan.Maestro.Plan.cores 0 }

let dispatch t (p : Packet.Pkt.t) = Nic.Rss.dispatch t.engines.(p.Packet.Pkt.port) p
let table t = Nic.Rss.reta t.engines.(0)
let set_table t tab = Array.iteri (fun p e -> t.engines.(p) <- Nic.Rss.with_reta e tab) t.engines

let share t =
  let size = Nic.Reta.size (table t) in
  Array.for_all (fun e -> Nic.Reta.size (Nic.Rss.reta e) = size) t.engines
  && (set_table t (table t);
      true)

let bucket t (p : Packet.Pkt.t) =
  let e = t.engines.(p.Packet.Pkt.port) in
  let h = Nic.Rss.hash_int e p in
  if h < 0 then -1 else h land (Nic.Reta.size (Nic.Rss.reta e) - 1)

let counted t (p : Packet.Pkt.t) =
  let b = bucket t p in
  let q =
    if b < 0 then 0
    else begin
      t.loads.(b) <- t.loads.(b) +. 1.0;
      Nic.Reta.lookup (Nic.Rss.reta t.engines.(p.Packet.Pkt.port)) b
    end
  in
  t.counts.(q) <- t.counts.(q) + 1;
  q

let counts t = t.counts

let reset t =
  Array.fill t.loads 0 (Array.length t.loads) 0.0;
  Array.fill t.counts 0 (Array.length t.counts) 0

let owner t h = Nic.Reta.lookup (table t) h

let hash t (p : Packet.Pkt.t) =
  let port = if p.Packet.Pkt.port < Array.length t.engines then p.Packet.Pkt.port else 0 in
  Nic.Rss.hash_int t.engines.(port) p

let imbalance counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 1.0
  else
    let mean = float_of_int total /. float_of_int (Array.length counts) in
    float_of_int (Array.fold_left max 0 counts) /. mean

let propose t ~threshold =
  if imbalance t.counts > threshold then Some (Nic.Reta.rebalance (table t) ~bucket_load:t.loads)
  else None
