type report = {
  epochs : int;
  static_imbalance : float array;
  dynamic_imbalance : float array;
  rebalances : int;
  migrated_buckets : int;
  migrated_flows : int;
}

let c_migrated_buckets =
  Telemetry.Counter.make "rebalance.migrated_buckets" ~doc:"indirection-table buckets remapped"

let c_migrated_flows =
  Telemetry.Counter.make "rebalance.migrated_flows" ~doc:"flow states moved across cores"

let study ?(threshold = 0.0) (plan : Maestro.Plan.t) pkts ~epoch_pkts =
  if epoch_pkts < 1 then Error "Rebalance.study: epoch_pkts must be >= 1"
  else if Array.length pkts < epoch_pkts then
    Error
      (Printf.sprintf "Rebalance.study: trace shorter than one epoch (%d packets, epoch %d)"
         (Array.length pkts) epoch_pkts)
  else begin
    (* the static reference keeps the per-port tables; the dynamic run
       shares one table across ports, as the pool's balancer does *)
    let static = Dispatch.create plan and dynamic = Dispatch.create plan in
    if not (Dispatch.share dynamic) then
      Error "Rebalance.study: port indirection tables differ in size"
    else begin
      let epochs = Array.length pkts / epoch_pkts in
      let static_imbalance = Array.make epochs 1.0 in
      let dynamic_imbalance = Array.make epochs 1.0 in
      let rebalances = ref 0 in
      let migrated_buckets = ref 0 and migrated_flows = ref 0 in
      (* distinct flows resident per bucket, cumulative since the start of
         the trace — mirroring the state a shared-nothing core accumulates *)
      let seen : (int * Packet.Flow.t, unit) Hashtbl.t = Hashtbl.create 4096 in
      let flows_in = Array.make (Nic.Reta.size (Dispatch.table dynamic)) 0 in
      for e = 0 to epochs - 1 do
        Dispatch.reset static;
        Dispatch.reset dynamic;
        for i = e * epoch_pkts to ((e + 1) * epoch_pkts) - 1 do
          let pkt = pkts.(i) in
          ignore (Dispatch.counted static pkt : int);
          let b = Dispatch.bucket dynamic pkt in
          if b >= 0 then begin
            let key = (b, Packet.Flow.normalize (Packet.Flow.of_pkt pkt)) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              flows_in.(b) <- flows_in.(b) + 1
            end
          end;
          ignore (Dispatch.counted dynamic pkt : int)
        done;
        static_imbalance.(e) <- Dispatch.imbalance (Dispatch.counts static);
        dynamic_imbalance.(e) <- Dispatch.imbalance (Dispatch.counts dynamic);
        (* rebalance between epochs only (there is nothing to gain after
           the last), and only when the observed imbalance warrants it *)
        if e < epochs - 1 then
          match Dispatch.propose dynamic ~threshold with
          | None -> ()
          | Some candidate ->
              let moves = Nic.Reta.diff (Dispatch.table dynamic) candidate in
              if moves <> [] then begin
                incr rebalances;
                List.iter
                  (fun (b, _, _) ->
                    incr migrated_buckets;
                    migrated_flows := !migrated_flows + flows_in.(b))
                  moves;
                Dispatch.set_table dynamic candidate
              end
      done;
      Telemetry.Counter.add c_migrated_buckets !migrated_buckets;
      Telemetry.Counter.add c_migrated_flows !migrated_flows;
      Ok
        {
          epochs;
          static_imbalance;
          dynamic_imbalance;
          rebalances = !rebalances;
          migrated_buckets = !migrated_buckets;
          migrated_flows = !migrated_flows;
        }
    end
  end

let study_exn ?threshold plan pkts ~epoch_pkts =
  match study ?threshold plan pkts ~epoch_pkts with
  | Ok r -> r
  | Error msg -> invalid_arg msg
