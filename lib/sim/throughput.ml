type bottleneck = Cpu | Pcie | Line_rate

type eval = {
  mpps : float;
  gbps : float;
  bottleneck : bottleneck;
  cycles_per_pkt : float;
  shares : float array;
  imbalance : float;
}

let bottleneck_name = function
  | Cpu -> "cpu"
  | Pcie -> "pcie"
  | Line_rate -> "line-rate"

let c_evals = Telemetry.Counter.make "sim.evaluations" ~doc:"throughput-model evaluations"
let h_share = Telemetry.Histogram.make "sim.core_share" ~doc:"per-core traffic share per evaluation"

let shares_of_counts counts =
  let total = Float.max 1.0 (float_of_int (Array.fold_left ( + ) 0 counts)) in
  Array.map (fun c -> float_of_int c /. total) counts

let shares_of ?(balanced = false) (plan : Maestro.Plan.t) pkts =
  let rss = Runtime.Dispatch.create plan in
  let count () = Array.iter (fun p -> ignore (Runtime.Dispatch.counted rss p : int)) pkts in
  (* balanced: one RSS++ rebalance of the shared table over the whole
     trace's bucket loads — per-port tables rebalanced apart could split
     the two directions of a flow, which shared-nothing cannot run *)
  if balanced && Runtime.Dispatch.share rss then begin
    count ();
    Option.iter (Runtime.Dispatch.set_table rss) (Runtime.Dispatch.propose rss ~threshold:0.0);
    Runtime.Dispatch.reset rss
  end;
  count ();
  shares_of_counts (Runtime.Dispatch.counts rss)

let shares_of_pool_stats (s : Runtime.Pool.stats) =
  (* prefer the pool's own post-rebalance share measurement (kept current
     by the online balancer); fall back to raw dispatch counts for stats
     from older runs *)
  if Array.length s.Runtime.Pool.last_core_share > 0 then
    Array.copy s.Runtime.Pool.last_core_share
  else shares_of_counts s.Runtime.Pool.last_per_core_pkts

let evaluate ?(machine = Machine.xeon_6226r) ?(params = Cost.default) ?(balanced_reta = false)
    ?measured_shares (plan : Maestro.Plan.t) (profile : Profile.t) pkts =
  Telemetry.Span.with_span "sim/evaluate" @@ fun () ->
  Telemetry.Counter.incr c_evals;
  let cores = plan.Maestro.Plan.cores in
  let n = float_of_int cores in
  let freq = machine.Machine.freq_hz in
  let shards = match plan.Maestro.Plan.strategy with Maestro.Plan.Shared_nothing -> cores | _ -> 1 in
  let ws = Cost.working_set_bytes profile ~shards in
  let c_pkt = Cost.packet_cycles ~params machine profile ~ws_bytes:ws in
  let shares =
    match measured_shares with
    | Some s ->
        if Array.length s <> cores then invalid_arg "Throughput.evaluate: measured_shares length";
        s
    | None -> shares_of ~balanced:balanced_reta plan pkts
  in
  if Telemetry.enabled () then Array.iter (Telemetry.Histogram.observe h_share) shares;
  let max_share = Array.fold_left Float.max 0.0 shares in
  let x_cpu =
    match plan.Maestro.Plan.strategy with
    | Maestro.Plan.Shared_nothing | Maestro.Plan.Load_balance ->
        (* independent cores: the hottest core saturates first *)
        let per_core_pps = freq /. c_pkt in
        if max_share <= 0.0 then per_core_pps *. n else per_core_pps /. max_share
    | Maestro.Plan.Lock_based ->
        let fw = profile.Profile.write_pkt_fraction in
        let hold = (params.Cost.write_section_factor *. c_pkt) +. (n *. params.Cost.remote_lock_cycles) in
        let read_cost = c_pkt +. params.Cost.read_lock_cycles in
        let denom = (fw *. n *. hold) +. ((1.0 -. fw) *. read_cost) in
        let x_serial = n *. freq /. denom in
        (* load imbalance independently binds the read-parallel part *)
        let x_balance =
          if max_share <= 0.0 then x_serial else freq /. read_cost /. max_share
        in
        Float.min x_serial x_balance
    | Maestro.Plan.Scr ->
        (* every core serves its owned share at full-NF cost plus digest
           encode/decode, and replays the other n-1 cores' write-slices;
           round-robin spray keeps the shares balanced by construction,
           so no max_share term — contention is the replay stream itself *)
        let digest_bytes =
          float_of_int
            (Maestro.Scrspec.derive plan.Maestro.Plan.nf).Maestro.Scrspec.digest_bytes
        in
        let c_digest = digest_bytes *. params.Cost.scr_digest_byte_cycles in
        let c_replay =
          (params.Cost.scr_replay_factor *. Float.max 0.0 (c_pkt -. params.Cost.base_cycles))
          +. c_digest
        in
        let c_own = c_pkt +. c_digest in
        n *. freq /. (c_own +. ((n -. 1.0) *. c_replay))
    | Maestro.Plan.Tm_based ->
        let kappa =
          Float.min 0.85 (params.Cost.tm_conflict_coeff *. profile.Profile.tm_writes_per_pkt)
        in
        let p_abort = 1.0 -. Float.pow (1.0 -. kappa) (n -. 1.0) in
        let attempts =
          Float.min (float_of_int params.Cost.tm_max_retries) (1.0 /. Float.max 0.05 (1.0 -. p_abort))
        in
        let p_fallback = Float.pow p_abort (float_of_int params.Cost.tm_max_retries) in
        let c_tx = (c_pkt *. params.Cost.tm_cycle_factor) +. params.Cost.tm_enter_cycles in
        let hold = (params.Cost.write_section_factor *. c_pkt) +. (n *. params.Cost.remote_lock_cycles) in
        let denom = (p_fallback *. n *. hold) +. ((1.0 -. p_fallback) *. attempts *. c_tx) in
        n *. freq /. denom
  in
  let frame = int_of_float (Float.round profile.Profile.avg_frame_bytes) in
  let x_pcie = Machine.pcie_pps machine ~frame_bytes:frame in
  let x_line = Machine.line_rate_pps machine ~frame_bytes:frame in
  let pps, bottleneck =
    if x_cpu <= x_pcie && x_cpu <= x_line then (x_cpu, Cpu)
    else if x_pcie <= x_line then (x_pcie, Pcie)
    else (x_line, Line_rate)
  in
  let imbalance = if max_share <= 0.0 then 1.0 else max_share *. n in
  {
    mpps = pps /. 1e6;
    gbps = pps *. profile.Profile.avg_frame_bytes *. 8.0 /. 1e9;
    bottleneck;
    cycles_per_pkt = c_pkt;
    shares;
    imbalance;
  }

type cluster_eval = {
  machines : int;
  per_machine : eval;
  machine_shares : float array;
  machine_imbalance : float;
  cluster_mpps : float;
  cluster_gbps : float;
  scaleout : float;
}

let evaluate_cluster ?machine ?params ?balanced_reta ?measured_shares ~machine_shares plan
    profile pkts =
  let n = Array.length machine_shares in
  if n = 0 then invalid_arg "Throughput.evaluate_cluster: no machines";
  let total = Array.fold_left ( +. ) 0.0 machine_shares in
  if total <= 0.0 then invalid_arg "Throughput.evaluate_cluster: machine shares sum to zero";
  let shares = Array.map (fun s -> s /. total) machine_shares in
  let per_machine = evaluate ?machine ?params ?balanced_reta ?measured_shares plan profile pkts in
  let max_share = Array.fold_left Float.max 0.0 shares in
  let mean = 1.0 /. float_of_int n in
  (* hottest machine saturates first — the shared-nothing law one level
     up, with machines in place of cores; NIC-side ceilings are already
     inside [per_machine] and each machine brings its own NIC *)
  let factor = 1.0 /. max_share in
  {
    machines = n;
    per_machine;
    machine_shares = shares;
    machine_imbalance = max_share /. mean;
    cluster_mpps = per_machine.mpps *. factor;
    cluster_gbps = per_machine.gbps *. factor;
    scaleout = factor;
  }
