(* Frames-to-verdicts benchmark: end-to-end Mpps through Runtime.Pool and a
   per-layer ledger.

   One run of one workload:

   1. Load generation (not timed): the workload's trace is built from
      --seed, serialized to wire frames (plus the rx port and timestamp a
      NIC hands over with each frame), and the sequential oracle
      Runtime.Parallel.run_sequential is computed on it.  Only a compact
      oracle is kept — output port and a header digest per packet — so
      that the heap tracks the program, not the load generator.
   2. Set-up, repeated and reported as a median: Maestro.Pipeline.parallelize
      followed by Runtime.Pool.create ~cores:2.
   3. Closed-loop passes for --seconds: a pass parses every frame with
      Packet.Wire.parse_typed and makes one Runtime.Pool.run over the
      parsed packets.  Every verdict of every pass is then checked against
      the oracle, outside the timed window.

   --trace 0 reports the end-to-end metrics.  --trace 1 alternates
   untraced passes with traced ones (the program's telemetry on, every
   layer call timed from here) and, between passes, times each layer's
   public entry point on the same packets; it reports the per-layer
   ledger.  The last line of standard output is one JSON object. *)

open Packet

let cores = 2

(* Why each workload exists is recorded in BENCHMARK.json; the layer each
   one should move most is in perfbench/layers.json. *)
type workload = { name : string; nf_name : string; flows : int; pkts : int }

let workloads =
  [
    { name = "nop64"; nf_name = "nop"; flows = 8192; pkts = 300_000 };
    (* 20k flows plus ~2% fresh ones: beyond L2, within fw's 65,536-entry
       table even when shared-nothing halves it per core *)
    { name = "fw64"; nf_name = "fw"; flows = 20_000; pkts = 300_000 };
    { name = "gre_scr"; nf_name = "gre_peer"; flows = 8192; pkts = 200_000 };
  ]

let now = Unix.gettimeofday

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it, taken on
   the slow side of a list of times (nan when there are too few). *)
let tail l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n < 11 then (nan, 0)
  else
    let k = n - 11 in
    (a.(k), 100 * (k + 1) / n)

(* ---- load generation ---------------------------------------------------- *)

(* Order-sensitive digest of every header field of a packet. *)
let digest (p : Pkt.t) =
  let inner =
    match p.encap with
    | None -> []
    | Some e ->
        [
          (if e.kind = Pkt.Vxlan then 1 else 2);
          e.tunnel_id;
          e.in_eth_src;
          e.in_eth_dst;
          e.in_ip_src;
          e.in_ip_dst;
          Pkt.proto_number e.in_proto;
          e.in_src_port;
          e.in_dst_port;
        ]
  in
  List.fold_left
    (fun h x -> (h * 0x100000001b3) lxor x)
    0xcbf29ce4
    ([
       p.port;
       p.eth_src;
       p.eth_dst;
       p.eth_type;
       p.ip_src;
       p.ip_dst;
       Pkt.proto_number p.proto;
       p.src_port;
       p.dst_port;
       p.size;
     ]
    @ inner)

type inputs = {
  frames : bytes array;
      (** one buffer per frame, like NIC rx buffers: Wire.parse_typed
          decodes a whole [bytes], so one contiguous buffer would cost a
          copy per frame inside the timed pass *)
  rx_port : int array;
  rx_ts : int array;
  out_port : int array;  (** oracle: output device, -1 when dropped *)
  out_digest : int array;  (** oracle: {!digest} of the forwarded packet *)
}

let generate w ~seed ~scale nf =
  let t0 = now () in
  let flows = max 64 (w.flows / scale) and pkts = max 256 (w.pkts / scale) in
  let trace = (Sim.Workload.read_heavy ~seed ~flows ~pkts ~size:64 w.nf_name).Sim.Workload.trace in
  let n = Array.length trace in
  let out_port = Array.make n (-1) and out_digest = Array.make n 0 in
  Array.iteri
    (fun i v ->
      match v with
      | Dsl.Interp.Fwd (o, p) ->
          out_port.(i) <- o;
          out_digest.(i) <- digest p
      | Dsl.Interp.Dropped -> ())
    (Runtime.Parallel.run_sequential nf trace);
  let inp =
    {
      frames = Array.map Wire.serialize trace;
      rx_port = Array.map (fun (p : Pkt.t) -> p.port) trace;
      rx_ts = Array.map (fun (p : Pkt.t) -> p.ts_ns) trace;
      out_port;
      out_digest;
    }
  in
  Gc.compact ();
  Printf.printf "workload %s (nf %s, seed %d): %d frames of %d B, generated in %.2f s\n" w.name
    w.nf_name seed n
    (Bytes.length inp.frames.(0))
    (now () -. t0);
  inp

(* ---- set-up --------------------------------------------------------------- *)

let request = { Maestro.Pipeline.default_request with cores }

type setup = { plan : Maestro.Plan.t; pool : Runtime.Pool.t; parallelize_s : float; create_s : float }

let setup_once nf =
  let t0 = now () in
  let outcome = Maestro.Pipeline.parallelize_exn ~request nf in
  let t1 = now () in
  let pool = Runtime.Pool.create ~cores () in
  let t2 = now () in
  { plan = outcome.Maestro.Pipeline.plan; pool; parallelize_s = t1 -. t0; create_s = t2 -. t1 }

(* Set up at least 15 times and for at least a second, but no more than
   200 times, so that the median is steady whether set-up takes 0.1 ms or
   0.2 s; every pool but the last is shut down.  [also] runs after each
   set-up (the traced run times the pipeline's stages there). *)
let setup_repeated ?(also = ignore) nf =
  let t_end = now () +. 1.0 in
  let rec go acc k =
    let s = setup_once nf in
    also nf;
    if k + 1 >= 15 && (now () >= t_end || k + 1 >= 200) then (s, List.rev (s :: acc))
    else begin
      Runtime.Pool.shutdown s.pool;
      go (s :: acc) (k + 1)
    end
  in
  go [] 0

(* ---- passes --------------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let placeholder = Pkt.make ~ip_src:0 ~ip_dst:0 ~src_port:0 ~dst_port:0 ()

(* Parse every frame into [pkts]; frames that do not parse are flagged in
   [bad] and replaced by a placeholder so the pool still sees a full trace. *)
let parse inp pkts bad =
  for i = 0 to Array.length inp.frames - 1 do
    match Wire.parse_typed ~port:inp.rx_port.(i) ~ts_ns:inp.rx_ts.(i) inp.frames.(i) with
    | Ok p ->
        pkts.(i) <- p;
        Bytes.unsafe_set bad i '\000'
    | Error _ ->
        pkts.(i) <- placeholder;
        Bytes.unsafe_set bad i '\001'
  done

(* A parse error or a verdict that differs from the oracle is one failure. *)
let check inp tally bad verdicts =
  let n = Array.length inp.frames in
  let failed = ref 0 in
  for i = 0 to n - 1 do
    let ok =
      Bytes.unsafe_get bad i = '\000'
      &&
      match verdicts.(i) with
      | Dsl.Interp.Dropped -> inp.out_port.(i) = -1
      | Dsl.Interp.Fwd (o, p) -> o = inp.out_port.(i) && digest p = inp.out_digest.(i)
    in
    if not ok then incr failed
  done;
  tally.attempted <- tally.attempted + n;
  tally.failed <- tally.failed + !failed

let whole_program_minor_words () =
  (* a minor collection is stop-the-world in OCaml 5: afterwards every
     domain's allocation count is current in [Gc.quick_stat] *)
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

type pass = {
  pass_s : float;
  words : float;  (** whole program *)
  parse_s : float;
  parse_words : float;  (** calling domain *)
  run_s : float;
  producer_words : float;  (** calling domain, across Pool.run *)
}

(* Everything a run measures with: the set-up it keeps, the inputs, and the
   buffers passes reuse. *)
type bench = {
  s : setup;
  setups : setup list;
  inp : inputs;
  pkts : Pkt.t array;
  bad : bytes;
  tally : tally;
}

(* One timed pass.  [traced] turns the program's telemetry on and times the
   two layer calls of the pass separately. *)
let run_pass ~traced { s; inp; pkts; bad; tally; _ } =
  let w0 = whole_program_minor_words () in
  if traced then Telemetry.enable ();
  let pw0 = Gc.minor_words () in
  let t0 = now () in
  parse inp pkts bad;
  let t1 = now () in
  let pw1 = Gc.minor_words () in
  let verdicts = Runtime.Pool.run s.pool s.plan pkts in
  let pw2 = Gc.minor_words () in
  let t2 = now () in
  if traced then Telemetry.disable ();
  let w1 = whole_program_minor_words () in
  check inp tally bad verdicts;
  {
    pass_s = t2 -. t0;
    words = w1 -. w0;
    parse_s = t1 -. t0;
    parse_words = pw1 -. pw0;
    run_s = t2 -. t1;
    producer_words = pw2 -. pw1;
  }

(* ---- output --------------------------------------------------------------- *)

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let report ~tally metrics =
  let ratio = float_of_int tally.failed /. float_of_int (max 1 tally.attempted) in
  Printf.printf "fail_ratio %s ratio (%d failed of %d attempted)\n" (num ratio) tally.failed
    tally.attempted;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  List.iter (fun (name, v, unit) -> Printf.printf "%s %s %s\n" name (num v) unit) metrics;
  let correct = tally.failed = 0 && tally.attempted > 0 && finite in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics));
  correct

(* Set up, then generate the inputs for the plan's NF and make one
   warm-up pass, so lazy set-up finishes before timing.  Set-up runs first,
   in a process that holds no inputs yet, as a user's would. *)
let prepare ?also w ~seed ~scale =
  let s, setups = setup_repeated ?also (Nfs.Registry.find_exn w.nf_name) in
  Printf.printf "plan: %s on %d cores; %d set-ups\n"
    (Maestro.Plan.strategy_name s.plan.Maestro.Plan.strategy)
    s.plan.Maestro.Plan.cores (List.length setups);
  let inp = generate w ~seed ~scale s.plan.Maestro.Plan.nf in
  let n = Array.length inp.frames in
  let b =
    {
      s;
      setups;
      inp;
      pkts = Array.make n placeholder;
      bad = Bytes.make n '\000';
      tally = { attempted = 0; failed = 0 };
    }
  in
  ignore (run_pass ~traced:false b);
  b

(* ---- --trace 0: end-to-end ------------------------------------------------ *)

let end_to_end w ~seed ~scale ~seconds =
  let b = prepare w ~seed ~scale in
  let setup_s = median (List.map (fun s -> s.parallelize_s +. s.create_s) b.setups) in
  let t_end = now () +. seconds in
  let rec loop acc =
    if now () >= t_end && List.length acc >= 3 then acc
    else loop (run_pass ~traced:false b :: acc)
  in
  let passes = loop [] in
  (* before the shutdown: the workers' heaps leave the count with them *)
  let peak_heap = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words in
  Runtime.Pool.shutdown b.s.pool;
  let n = Array.length b.inp.frames in
  let fn = float_of_int n in
  let times = List.map (fun p -> p.pass_s) passes in
  let mpps = fn /. median times /. 1e6 in
  let slow, pct = tail times in
  Printf.printf "passes: %d of %d frames; median %.4f Mpps, p%d %.4f Mpps\n" (List.length passes)
    n mpps pct (fn /. slow /. 1e6);
  report ~tally:b.tally
    [
      ("setup_s", setup_s, "s");
      ("mpps", mpps, "Mpps");
      ("alloc_words_per_pkt", median (List.map (fun p -> p.words /. fn) passes), "words");
      ("peak_heap_mb", peak_heap, "MB");
    ]

(* ---- --trace 1: per-layer ledger ------------------------------------------ *)

(* Samples per metric, in recording order. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 32

let record name v =
  Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let med name = median (Option.value ~default:[] (Hashtbl.find_opt samples name))

(* Time [f] and count the minor words the calling domain allocates in it. *)
let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, t1 -. t0, Gc.minor_words () -. w0)

let fallback_counter = Telemetry.Counter.make "state.key_string_fallback"

(* The pipeline's stages, called one by one through their public entry
   points on the same NF parallelize got. *)
let time_stages nf =
  Telemetry.enable ();
  let model, symbex_s, _ = timed (fun () -> Symbex.Exec.run nf) in
  let decision, sharding_s, _ =
    timed (fun () -> Maestro.Sharding.decide (Maestro.Report.build model))
  in
  let solve_s =
    match decision with
    | Maestro.Sharding.Shard constraints ->
        let _, dt, _ =
          timed (fun () ->
              match
                Rs3.Problem.for_constraints ~nic:request.nic ~nports:nf.Dsl.Ast.devices
                  constraints
              with
              | Error _ -> ()
              | Ok problem ->
                  ignore (Rs3.Solve.solve ~backend:request.solver ~seed:request.seed problem))
        in
        Some dt
    | Maestro.Sharding.No_state | Maestro.Sharding.Read_only | Maestro.Sharding.Blocked _ -> None
  in
  Telemetry.disable ();
  record "symbex.run_ms" (symbex_s *. 1e3);
  record "symbex.paths" (float_of_int (Symbex.Exec.paths model));
  record "core.sharding_ms" (sharding_s *. 1e3);
  (symbex_s +. sharding_s, solve_s)

(* Per-layer probes on one parsed trace, between passes. *)
let probe_layers s pkts ~scr =
  let nf = s.plan.Maestro.Plan.nf in
  let fn = float_of_int (Array.length pkts) in
  Telemetry.enable ();
  (* nic: the dispatch the pool's producer makes, on the plan's engines *)
  let engines = Array.init nf.Dsl.Ast.devices (Maestro.Plan.rss_engine s.plan) in
  Array.iter (fun e -> ignore (Nic.Rss.dispatch e pkts.(0))) engines;
  let counts = Array.make cores 0 in
  let (), dt, words =
    timed (fun () ->
        Array.iter
          (fun (p : Pkt.t) ->
            let q = Nic.Rss.dispatch engines.(p.port) p in
            counts.(q) <- counts.(q) + 1)
          pkts)
  in
  record "nic.dispatch_ns_per_pkt" (dt /. fn *. 1e9);
  record "nic.dispatch_words_per_pkt" (words /. fn);
  record "nic.core_share_max" (float_of_int (Array.fold_left max 0 counts) /. fn);
  (* dsl: staging (paid by every Pool.run), then the NF on one instance *)
  let info = Dsl.Check.check_exn nf in
  let staged, dt, _ = timed (fun () -> Dsl.Compile.stage_runner nf info) in
  record "dsl.stage_ms" (dt *. 1e3);
  let runner = Dsl.Compile.bind_runner staged (Dsl.Instance.create nf) in
  let (), dt, words =
    timed (fun () -> Array.iter (fun p -> ignore (Dsl.Compile.run runner p)) pkts)
  in
  record "dsl.nf_ns_per_pkt" (dt /. fn *. 1e9);
  record "dsl.nf_words_per_pkt" (words /. fn);
  (* runtime.scr: digest every pool-sized batch, then replay the digests on
     a fresh replica *)
  let batch = Runtime.Pool.batch_size s.pool in
  let nb = (Array.length pkts + batch - 1) / batch in
  let len b = min batch (Array.length pkts - (b * batch)) in
  let digests, dt, _ =
    timed (fun () -> Array.init nb (fun b -> Runtime.Scr.encode_batch scr pkts ~lo:(b * batch) ~len:(len b)))
  in
  record "runtime.scr.encode_ns_per_pkt" (dt /. fn *. 1e9);
  let replayer = Runtime.Scr.bind scr (Dsl.Instance.create nf) in
  let (), dt, _ =
    timed (fun () -> Array.iteri (fun b d -> Runtime.Scr.apply_batch replayer d ~npkts:(len b)) digests)
  in
  record "runtime.scr.apply_ns_per_pkt" (dt /. fn *. 1e9);
  Telemetry.disable ()

(* Stateful operations per packet and the share of packets that write,
   from the op-event stream of a sequential run (deterministic).  A write
   packet is one the lock discipline would serialize (paper §3.6):
   rejuvenations are absorbed by per-core aging, and an expiry writes only
   when a flow ages out — the classification of Runtime.Parallel. *)
let count_ops nf pkts =
  let info = Dsl.Check.check_exn nf in
  let runner = Dsl.Compile.make_runner nf info (Dsl.Instance.create nf) in
  let ops = ref 0 and writes = ref 0 in
  Array.iter
    (fun p ->
      let wrote = ref false in
      ignore
        (Dsl.Compile.run runner p ~on_op:(fun ev ->
             incr ops;
             match ev.Dsl.Interp.kind with
             | Dsl.Interp.Op_chain_rejuv -> ()
             | Dsl.Interp.Op_chain_expire -> if ev.Dsl.Interp.expired > 0 then wrote := true
             | _ -> if ev.Dsl.Interp.write then wrote := true));
      if !wrote then incr writes)
    pkts;
  let fn = float_of_int (Array.length pkts) in
  (float_of_int !ops /. fn, float_of_int !writes /. fn)

let per_layer w ~seed ~scale ~seconds =
  let stage_costs = ref [] in
  let b =
    prepare w ~seed ~scale ~also:(fun nf -> stage_costs := time_stages nf :: !stage_costs)
  in
  let s = b.s and pkts = b.pkts in
  List.iter (fun s -> record "runtime.pool.create_ms" (s.create_s *. 1e3)) b.setups;
  (* RS3 is called only when sharding yields constraints; otherwise its
     slot is what parallelize spends beyond the stages timed above *)
  List.iter2
    (fun s (stages_s, solve_s) ->
      record "rs3.solve_ms"
        (1e3 *. match solve_s with Some dt -> dt | None -> s.parallelize_s -. stages_s))
    b.setups (List.rev !stage_costs);
  let strategy = s.plan.Maestro.Plan.strategy in
  let fn = float_of_int (Array.length pkts) in
  let nf = s.plan.Maestro.Plan.nf in
  let scr = Runtime.Scr.prepare (Maestro.Scrspec.derive nf) in
  let ops, write_ratio = count_ops nf pkts in
  let stat () = Runtime.Pool.stats s.pool in
  let t_end = now () +. seconds in
  let iters = ref 0 in
  while !iters < 3 || now () < t_end do
    incr iters;
    let u = run_pass ~traced:false b in
    record "untraced.pass_s" u.pass_s;
    let st0 = stat () and fb0 = Telemetry.Counter.value fallback_counter in
    let p = run_pass ~traced:true b in
    let st1 = stat () and fb1 = Telemetry.Counter.value fallback_counter in
    record "traced.pass_s" p.pass_s;
    record "packet.parse_ns_per_pkt" (p.parse_s /. fn *. 1e9);
    record "packet.parse_words_per_pkt" (p.parse_words /. fn);
    record "runtime.pool.run_ns_per_pkt" (p.run_s /. fn *. 1e9);
    record "runtime.pool.producer_words_per_pkt" (p.producer_words /. fn);
    record "runtime.pool.ring_full_stalls"
      (float_of_int (st1.Runtime.Pool.ring_full_stalls - st0.Runtime.Pool.ring_full_stalls));
    record "runtime.scr.digest_bytes_per_pkt"
      (float_of_int (st1.Runtime.Pool.scr_digest_bytes - st0.Runtime.Pool.scr_digest_bytes) /. fn);
    record "state.key_fallback_per_pkt" (float_of_int (fb1 - fb0) /. fn);
    record "pool.core_share_max" (Array.fold_left max 0. st1.Runtime.Pool.last_core_share);
    probe_layers s pkts ~scr
  done;
  Runtime.Pool.shutdown s.pool;
  (* the ledger: layers on the blocking path against the traced pass *)
  let share = med "pool.core_share_max" in
  let parse_ns = med "packet.parse_ns_per_pkt" in
  let stage_ns = med "dsl.stage_ms" *. 1e6 /. fn in
  let nf_ns = med "dsl.nf_ns_per_pkt" in
  let blocking, terms =
    match strategy with
    | Maestro.Plan.Scr ->
        (* every core runs the NF on the batches it owns and replays the rest *)
        let apply_ns = med "runtime.scr.apply_ns_per_pkt" in
        ( parse_ns +. stage_ns +. (nf_ns *. share) +. (apply_ns *. (1. -. share)),
          Printf.sprintf "parse %.1f + stage %.1f + nf %.1f x %.3f + replay %.1f x %.3f" parse_ns
            stage_ns nf_ns share apply_ns (1. -. share) )
    | Maestro.Plan.Shared_nothing | Maestro.Plan.Load_balance | Maestro.Plan.Lock_based
    | Maestro.Plan.Tm_based ->
        (* the producer dispatches the whole trace before the workers run *)
        let dispatch_ns = med "nic.dispatch_ns_per_pkt" in
        ( parse_ns +. stage_ns +. dispatch_ns +. (nf_ns *. share),
          Printf.sprintf "parse %.1f + stage %.1f + dispatch %.1f + nf %.1f x %.3f" parse_ns
            stage_ns dispatch_ns nf_ns share )
  in
  let pass_ns = med "traced.pass_s" /. fn *. 1e9 in
  let residual = pass_ns -. blocking in
  Printf.printf "ledger: %s = %.1f ns/pkt on the blocking path\n" terms blocking;
  Printf.printf "ledger: traced pass %.1f ns/pkt, residual %.1f ns/pkt (%d iterations)\n" pass_ns
    residual !iters;
  let untraced_mpps = fn /. med "untraced.pass_s" /. 1e6 in
  let traced_mpps = fn /. med "traced.pass_s" /. 1e6 in
  Printf.printf "telemetry: untraced %.4f Mpps, traced %.4f Mpps\n" untraced_mpps traced_mpps;
  report ~tally:b.tally
    [
      ("packet.parse_ns_per_pkt", parse_ns, "ns");
      ("packet.parse_words_per_pkt", med "packet.parse_words_per_pkt", "words");
      ("nic.dispatch_ns_per_pkt", med "nic.dispatch_ns_per_pkt", "ns");
      ("nic.dispatch_words_per_pkt", med "nic.dispatch_words_per_pkt", "words");
      ("nic.core_share_max", med "nic.core_share_max", "ratio");
      ("dsl.stage_ms", med "dsl.stage_ms", "ms");
      ("dsl.nf_ns_per_pkt", nf_ns, "ns");
      ("dsl.nf_words_per_pkt", med "dsl.nf_words_per_pkt", "words");
      ("state.ops_per_pkt", ops, "ops");
      ("state.write_pkt_ratio", write_ratio, "ratio");
      ("state.key_fallback_per_pkt", med "state.key_fallback_per_pkt", "ops");
      ("runtime.pool.create_ms", med "runtime.pool.create_ms", "ms");
      ("runtime.pool.run_ns_per_pkt", med "runtime.pool.run_ns_per_pkt", "ns");
      ("runtime.pool.ring_full_stalls", med "runtime.pool.ring_full_stalls", "count");
      ("runtime.pool.residual_ns_per_pkt", residual, "ns");
      ("runtime.pool.producer_words_per_pkt", med "runtime.pool.producer_words_per_pkt", "words");
      ("runtime.scr.encode_ns_per_pkt", med "runtime.scr.encode_ns_per_pkt", "ns");
      ("runtime.scr.apply_ns_per_pkt", med "runtime.scr.apply_ns_per_pkt", "ns");
      ("runtime.scr.digest_bytes_per_pkt", med "runtime.scr.digest_bytes_per_pkt", "B");
      ("symbex.run_ms", med "symbex.run_ms", "ms");
      ("symbex.paths", med "symbex.paths", "count");
      ("core.sharding_ms", med "core.sharding_ms", "ms");
      ("rs3.solve_ms", med "rs3.solve_ms", "ms");
      ("telemetry.overhead_pct", (untraced_mpps -. traced_mpps) /. untraced_mpps *. 100., "%");
    ]

(* ---- command line --------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let scale = ref 1 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME nop64 | fw64 | gre_scr");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S how long passes are measured");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
      ("--scale", Arg.Set_int scale, "K divide flows and packets by K (smoke tests)");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  if !seconds < 1 || !scale < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let run = if !trace = 0 then end_to_end else per_layer in
  let correct = run w ~seed:!seed ~scale:!scale ~seconds:(float_of_int !seconds) in
  exit (if correct then 0 else 1)
