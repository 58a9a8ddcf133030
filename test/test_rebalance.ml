(* Online RSS++ rebalancing: the flow→core invariant must survive live
   indirection-table changes, the balancer must never resurrect a
   written-off core, and the pool's migration accounting must agree with
   the offline study of the same trace. *)

let rng seed = Random.State.make [| seed |]

let plan_of ?(cores = 8) ?(strategy = `Auto) name =
  let request = { Maestro.Pipeline.default_request with cores; strategy } in
  (Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn name)).Maestro.Pipeline.plan

let verdicts_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Dsl.Interp.Dropped, Dsl.Interp.Dropped -> true
         | Dsl.Interp.Fwd (pa, oa), Dsl.Interp.Fwd (pb, ob) -> pa = pb && Packet.Pkt.equal oa ob
         | _ -> false)
       a b

let zipf_trace ?(reply_fraction = 0.0) seed ~pkts ~nflows =
  let st = rng seed in
  let z = Traffic.Zipf.make ~exponent:1.2 ~nflows () in
  let flows = Traffic.Gen.flows st nflows in
  let spec = { Traffic.Gen.default_spec with pkts; reply_fraction } in
  Traffic.Zipf.trace ~spec st z ~flows

(* (a) between two consecutive rebalance points, every flow's packets land
   on exactly one core — the ordering guarantee of the quiesce protocol *)
let ordering_violations trace (s : Runtime.Pool.stats) =
  let points = Array.of_list s.Runtime.Pool.last_rebalance_points in
  let flow_core = Hashtbl.create 1024 in
  let seg = ref 0 and viol = ref 0 in
  Array.iteri
    (fun i pkt ->
      while !seg < Array.length points && i >= points.(!seg) do
        incr seg;
        Hashtbl.reset flow_core
      done;
      let flow = Packet.Flow.normalize (Packet.Flow.of_pkt pkt) in
      let core = s.Runtime.Pool.last_assignment.(i) in
      match Hashtbl.find_opt flow_core flow with
      | None -> Hashtbl.add flow_core flow core
      | Some c -> if c <> core then incr viol)
    trace;
  !viol

let test_pool_rebalance_flow_ordering () =
  let plan = plan_of ~cores:4 "fw" in
  let trace = zipf_trace 41 ~reply_fraction:0.3 ~pkts:6144 ~nflows:400 in
  let seq = Runtime.Parallel.run_sequential (Nfs.Registry.find_exn "fw") trace in
  let pool = Runtime.Pool.create ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let mode = Runtime.Balancer.On { Runtime.Balancer.epoch_pkts = 1024; threshold = 0.0 } in
  let v = Runtime.Pool.run ~rebalance:mode pool plan trace in
  let s = Runtime.Pool.stats pool in
  Alcotest.(check bool) "balancer engaged" true (s.Runtime.Pool.rebalances >= 1);
  Alcotest.(check int) "assignment covers the trace" (Array.length trace)
    (Array.length s.Runtime.Pool.last_assignment);
  Alcotest.(check int) "zero flow-ordering violations" 0 (ordering_violations trace s);
  Alcotest.(check bool) "rebalance points strictly ascending" true
    (let rec asc = function
       | a :: (b :: _ as rest) -> a < b && asc rest
       | _ -> true
     in
     asc s.Runtime.Pool.last_rebalance_points);
  Alcotest.(check bool) "migrated verdicts == sequential" true (verdicts_equal seq v)

(* (b) Reta.rebalance composed with Reta.remap never targets a written-off
   core, whatever the load profile and however many cores died *)
let prop_rebalance_remap_avoids_dead =
  QCheck.Test.make ~name:"rebalance+remap never targets a written-off core" ~count:100
    QCheck.(triple (int_range 0 1_000_000) (int_range 2 12) (int_range 1 6))
    (fun (seed, queues, ndead) ->
      QCheck.assume (ndead < queues);
      let st = rng seed in
      let reta = Nic.Reta.create ~size:64 ~queues () in
      let load =
        Array.init (Nic.Reta.size reta) (fun _ -> float_of_int (Random.State.int st 1000))
      in
      let live = Array.make queues true in
      let rec kill n =
        if n > 0 then begin
          let c = Random.State.int st queues in
          if live.(c) && Array.fold_left (fun a l -> a + Bool.to_int l) 0 live > 1 then
            live.(c) <- false;
          kill (n - 1)
        end
      in
      kill ndead;
      let moved = Nic.Reta.remap (Nic.Reta.rebalance reta ~bucket_load:load) ~live in
      Array.for_all (fun q -> live.(q)) (Nic.Reta.entries moved)
      && List.for_all (fun (_, _, target) -> live.(target)) (Nic.Reta.diff reta moved))

(* (c) the pool's migration accounting must agree with the offline study
   of the same trace: same shared table, same epochs, same threshold *)
let test_pool_agrees_with_study () =
  let epoch_pkts = 1024 and threshold = 0.5 in
  let plan = plan_of ~cores:4 "fw" in
  (* reply_fraction 0: every packet is LAN->WAN, one state entry per flow,
     nothing expires — the study's per-bucket distinct-flow count then
     equals the number of state entries the pool actually hands over *)
  let trace = zipf_trace 42 ~pkts:4096 ~nflows:300 in
  let r = Runtime.Rebalance.study_exn ~threshold plan trace ~epoch_pkts in
  let pool = Runtime.Pool.create ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let mode = Runtime.Balancer.On { Runtime.Balancer.epoch_pkts; threshold } in
  let (_ : Dsl.Interp.action array) = Runtime.Pool.run ~rebalance:mode pool plan trace in
  let s = Runtime.Pool.stats pool in
  Alcotest.(check int) "rebalances agree" r.Runtime.Rebalance.rebalances
    s.Runtime.Pool.rebalances;
  Alcotest.(check int) "migrated buckets agree" r.Runtime.Rebalance.migrated_buckets
    s.Runtime.Pool.migrated_buckets;
  Alcotest.(check int) "migrated flows agree" r.Runtime.Rebalance.migrated_flows
    s.Runtime.Pool.migrated_flows;
  Alcotest.(check int) "no evictions" 0 s.Runtime.Pool.migration_drops;
  (* epoch by epoch, the study's dynamic imbalance is the max/mean of the
     per-core counts the pool actually steered *)
  for e = 0 to r.Runtime.Rebalance.epochs - 1 do
    let counts = Array.make 4 0 in
    for i = e * epoch_pkts to ((e + 1) * epoch_pkts) - 1 do
      let q = s.Runtime.Pool.last_assignment.(i) in
      counts.(q) <- counts.(q) + 1
    done;
    let mean = float_of_int epoch_pkts /. 4.0 in
    let pool_imbalance = float_of_int (Array.fold_left max 0 counts) /. mean in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "epoch %d imbalance agrees" e)
      r.Runtime.Rebalance.dynamic_imbalance.(e) pool_imbalance
  done

(* --- barrier branches: shared state, replicas, forced write-offs ----------- *)

let eager = Runtime.Balancer.On { Runtime.Balancer.epoch_pkts = 256; threshold = 0.0 }

(* (d) lock-based plans share one instance: the balancer moves buckets but
   never state.  LAN->WAN-only traffic keeps the verdicts order-insensitive
   (the lock discipline serializes writes in acquisition order) *)
let test_pool_rebalance_locks () =
  let plan = plan_of ~cores:4 ~strategy:`Force_locks "fw" in
  let trace = zipf_trace 44 ~pkts:4096 ~nflows:300 in
  let seq = Runtime.Parallel.run_sequential (Nfs.Registry.find_exn "fw") trace in
  let pool = Runtime.Pool.create ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let v = Runtime.Pool.run ~rebalance:eager pool plan trace in
  let s = Runtime.Pool.stats pool in
  Alcotest.(check bool) "balancer engaged" true (s.Runtime.Pool.rebalances >= 1);
  Alcotest.(check int) "no state handed over" 0 s.Runtime.Pool.migrated_flows;
  Alcotest.(check bool) "verdicts == sequential" true (verdicts_equal seq v)

(* (e) load-balance replicas are read-only copies: nothing ever migrates *)
let test_pool_rebalance_load_balance () =
  let plan = plan_of ~cores:4 "sbridge" in
  Alcotest.(check bool) "sbridge plans load-balance" true
    (plan.Maestro.Plan.strategy = Maestro.Plan.Load_balance);
  let trace = zipf_trace 45 ~reply_fraction:0.3 ~pkts:4096 ~nflows:300 in
  let seq = Runtime.Parallel.run_sequential (Nfs.Registry.find_exn "sbridge") trace in
  let pool = Runtime.Pool.create ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let v = Runtime.Pool.run ~rebalance:eager pool plan trace in
  let s = Runtime.Pool.stats pool in
  Alcotest.(check int) "replicas never migrate" 0 s.Runtime.Pool.migrated_flows;
  Alcotest.(check bool) "verdicts == sequential" true (verdicts_equal seq v)

(* (f) a permanent write-off mid-run forces a rebalance at the next
   barrier: the dead core's buckets and flow state move to live cores *)
let test_pool_forced_rebalance () =
  let plan = plan_of ~cores:4 "fw" in
  let trace = zipf_trace 46 ~reply_fraction:0.3 ~pkts:4096 ~nflows:300 in
  let seq = Runtime.Parallel.run_sequential (Nfs.Registry.find_exn "fw") trace in
  (match Faults.parse "crash@1:0x1000000" with
  | Ok p -> Faults.install p
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Faults.clear @@ fun () ->
  let pool =
    Runtime.Pool.create
      ~supervisor:{ Runtime.Supervisor.default_config with max_restarts = 0 }
      ~cores:4 ()
  in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let v = Runtime.Pool.run ~rebalance:eager pool plan trace in
  let s = Runtime.Pool.stats pool in
  Alcotest.(check (list int)) "core 1 written off" [ 1 ] s.Runtime.Pool.failed_cores;
  Alcotest.(check bool) "write-off forced a rebalance" true
    (s.Runtime.Pool.forced_rebalances >= 1);
  let dead_after =
    match s.Runtime.Pool.last_rebalance_points with
    | [] -> Alcotest.fail "no rebalance point recorded"
    | p :: _ ->
        let n = ref 0 in
        Array.iteri (fun i c -> if i >= p && c = 1 then incr n) s.Runtime.Pool.last_assignment;
        !n
  in
  Alcotest.(check int) "no packet on the dead core after the first point" 0 dead_after;
  Alcotest.(check int) "zero flow-ordering violations" 0 (ordering_violations trace s);
  Alcotest.(check bool) "verdicts == sequential" true (verdicts_equal seq v)

(* --- typed errors + mode parsing ------------------------------------------- *)

let test_study_short_trace_error () =
  let plan = plan_of ~cores:4 "fw" in
  let trace = zipf_trace 43 ~pkts:100 ~nflows:50 in
  (match Runtime.Rebalance.study plan trace ~epoch_pkts:4096 with
  | Ok _ -> Alcotest.fail "short trace must be rejected"
  | Error e ->
      Alcotest.(check bool) "message names the lengths" true
        (Astring_contains.contains e "4096" && Astring_contains.contains e "100"));
  match Runtime.Rebalance.study plan trace ~epoch_pkts:0 with
  | Ok _ -> Alcotest.fail "zero epoch must be rejected"
  | Error _ -> ()

let test_balancer_parse () =
  let ok s =
    match Runtime.Balancer.parse s with
    | Ok m -> m
    | Error e -> Alcotest.fail (Printf.sprintf "%S: %s" s e)
  in
  (match ok "off" with
  | Runtime.Balancer.Off -> ()
  | _ -> Alcotest.fail "off");
  (match ok "on" with
  | Runtime.Balancer.On c ->
      Alcotest.(check int) "default epoch" Runtime.Balancer.default_config.epoch_pkts
        c.Runtime.Balancer.epoch_pkts
  | _ -> Alcotest.fail "on");
  (match ok "epoch=512,threshold=1.5" with
  | Runtime.Balancer.On c ->
      Alcotest.(check int) "epoch" 512 c.Runtime.Balancer.epoch_pkts;
      Alcotest.(check (float 1e-9)) "threshold" 1.5 c.Runtime.Balancer.threshold
  | _ -> Alcotest.fail "epoch+threshold");
  List.iter
    (fun bad ->
      match Runtime.Balancer.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must be rejected" bad)
      | Error _ -> ())
    [ ""; "epoch=0"; "epoch=x"; "threshold=0.5"; "bogus"; "epoch=" ];
  (* round-trips for the CLI's printer *)
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Runtime.Balancer.to_string (ok s)))
    [ "off"; "epoch=512,threshold=1.5" ]

let suite =
  [
    Alcotest.test_case "pool rebalance preserves per-flow ordering" `Slow
      test_pool_rebalance_flow_ordering;
    QCheck_alcotest.to_alcotest prop_rebalance_remap_avoids_dead;
    Alcotest.test_case "pool migration counters agree with the study" `Slow
      test_pool_agrees_with_study;
    Alcotest.test_case "pool rebalance on a lock plan moves no state" `Slow
      test_pool_rebalance_locks;
    Alcotest.test_case "pool rebalance never migrates load-balance replicas" `Slow
      test_pool_rebalance_load_balance;
    Alcotest.test_case "pool write-off forces a rebalance" `Slow test_pool_forced_rebalance;
    Alcotest.test_case "study rejects short traces with a typed error" `Quick
      test_study_short_trace_error;
    Alcotest.test_case "balancer mode parsing" `Quick test_balancer_parse;
  ]
