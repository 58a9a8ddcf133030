(* Differential testing of the staged compiler against the interpreter —
   the compiled closure must be observationally identical: same verdicts
   AND same op-event streams, packet by packet, on every shipped NF, on
   the Fig. 2 micro-NFs, against the VPP NAT44 graph, and with the
   supervised pool under an injected fault plan. *)

let ops_pp fmt (e : Dsl.Interp.op_event) =
  Format.fprintf fmt "%s(%b,%d)" e.Dsl.Interp.obj e.Dsl.Interp.write e.Dsl.Interp.expired

(* Run [trace] through an interpreter instance and a compiled instance in
   lockstep; fail on the first divergence. *)
let differential_on label nf i_inst c_inst trace =
  let info = Dsl.Check.check_exn nf in
  let bound = Dsl.Compile.bind (Dsl.Compile.stage nf info) c_inst in
  Array.iteri
    (fun i pkt ->
      let i_ops = ref [] and c_ops = ref [] in
      let a1 = Dsl.Interp.process ~on_op:(fun e -> i_ops := e :: !i_ops) nf info i_inst pkt in
      let a2 = Dsl.Compile.process ~on_op:(fun e -> c_ops := e :: !c_ops) bound pkt in
      if a1 <> a2 then
        Alcotest.failf "%s: verdict diverges at packet %d (%a)" label i Packet.Pkt.pp pkt;
      if !i_ops <> !c_ops then
        Alcotest.failf "%s: op stream diverges at packet %d: interp [%a] compiled [%a]" label
          i
          (Format.pp_print_list ops_pp)
          (List.rev !i_ops)
          (Format.pp_print_list ops_pp)
          (List.rev !c_ops))
    trace

let differential label nf trace =
  differential_on label nf (Dsl.Instance.create nf) (Dsl.Instance.create nf) trace

(* An adversarial trace: a tiny address space forces key collisions,
   capacity-full puts, expiry storms and both traffic directions. *)
let hostile_trace ~seed n =
  let rng = Random.State.make [| seed |] in
  Array.init n (fun i ->
      Packet.Pkt.make
        ~port:(Random.State.int rng 2)
        ~ip_src:(Random.State.int rng 8)
        ~ip_dst:(Random.State.int rng 8)
        ~src_port:(Random.State.int rng 4)
        ~dst_port:(Random.State.int rng 4)
        ~ts_ns:(i * Random.State.int rng 5_000_000)
        ())

let test_registry_nfs () =
  List.iter
    (fun name ->
      let w = Sim.Workload.read_heavy ~pkts:3_000 ~flows:300 name in
      differential (name ^ "/read-heavy") w.Sim.Workload.nf w.Sim.Workload.trace;
      differential (name ^ "/hostile") (Nfs.Registry.find_exn name) (hostile_trace ~seed:7 2_000))
    Nfs.Registry.extended_names

let test_fig2_scenarios () =
  List.iter
    (fun (nf : Dsl.Ast.t) ->
      differential nf.Dsl.Ast.name nf (hostile_trace ~seed:11 2_000))
    (Nfs.Scenarios.all ())

(* The compiled maestro NAT must agree with the hand-written VPP NAT44
   graph exactly as the interpreter does (mirrors
   test_vpp.test_nat44_agrees_with_maestro_nat, compiled side). *)
let test_vpp_nat44_agrees_with_compiled () =
  let w = Sim.Workload.read_heavy ~pkts:4_000 ~flows:500 "nat" in
  let vpp = Vpp.Nat44.create () in
  let vpp_verdicts = Vpp.Nat44.run vpp w.Sim.Workload.trace in
  let info = Dsl.Check.check_exn w.Sim.Workload.nf in
  let runner =
    Dsl.Compile.make_runner ~compiled:true w.Sim.Workload.nf info
      (Dsl.Instance.create w.Sim.Workload.nf)
  in
  let compiled = Array.map (Dsl.Compile.run runner) w.Sim.Workload.trace in
  Array.iteri
    (fun i v ->
      let same =
        match (v, compiled.(i)) with
        | Vpp.Graph.Sent (pa, _), Dsl.Interp.Fwd (pb, _) -> pa = pb
        | Vpp.Graph.Dropped, Dsl.Interp.Dropped -> true
        | _ -> false
      in
      Alcotest.(check bool) (Printf.sprintf "verdict %d" i) true same)
    vpp_verdicts

(* Crash/replay semantics from PR 3 hold with the compiled path: under a
   seeded fault plan the supervised pool (workers on compiled closures)
   still reproduces the sequential interpreter verdict for every packet. *)
let test_pool_fault_plan_differential () =
  (match Faults.parse "crash@1:2; crash@2:5" with
  | Ok plan -> Faults.install plan
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Faults.clear @@ fun () ->
  let w = Sim.Workload.read_heavy ~pkts:4_000 ~flows:400 "fw" in
  let nf = w.Sim.Workload.nf in
  let request = { Maestro.Pipeline.default_request with cores = 4; seed = 3 } in
  let plan = (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.plan in
  let seq = Runtime.Parallel.run_sequential nf w.Sim.Workload.trace in
  Dsl.Compile.set_default true;
  let pool = Runtime.Pool.create ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let verdicts = Runtime.Pool.run pool plan w.Sim.Workload.trace in
  let stats = Runtime.Pool.stats pool in
  Alcotest.(check bool) "at least one restart" true (stats.Runtime.Pool.restarts >= 1);
  Array.iteri
    (fun i v ->
      if v <> seq.(i) then Alcotest.failf "pool verdict %d diverges from sequential" i)
    verdicts

(* The interp runner honours the dispatch switch: with [?compiled:false]
   (or the global default off) the runner is the interpreter itself. *)
let test_runner_dispatch () =
  let nf = Nfs.Registry.find_exn "fw" in
  let info = Dsl.Check.check_exn nf in
  let mk c = Dsl.Compile.make_runner ?compiled:c nf info (Dsl.Instance.create nf) in
  Alcotest.(check bool) "explicit on" true (Dsl.Compile.is_compiled (mk (Some true)));
  Alcotest.(check bool) "explicit off" false (Dsl.Compile.is_compiled (mk (Some false)));
  let before = Dsl.Compile.default_enabled () in
  Fun.protect ~finally:(fun () -> Dsl.Compile.set_default before) @@ fun () ->
  Dsl.Compile.set_default false;
  Alcotest.(check bool) "default off" false (Dsl.Compile.is_compiled (mk None));
  Dsl.Compile.set_default true;
  Alcotest.(check bool) "default on" true (Dsl.Compile.is_compiled (mk None))

(* Re-binding one staged program over independent instances keeps their
   state disjoint (the pool binds a fresh instance per core). *)
let test_bind_isolates_state () =
  let nf = Nfs.Registry.find_exn "fw" in
  let info = Dsl.Check.check_exn nf in
  let staged = Dsl.Compile.stage nf info in
  let b1 = Dsl.Compile.bind staged (Dsl.Instance.create nf) in
  let b2 = Dsl.Compile.bind staged (Dsl.Instance.create nf) in
  let lan_pkt =
    Packet.Pkt.make ~port:0 ~ip_src:10 ~ip_dst:20 ~src_port:1 ~dst_port:2 ()
  in
  let wan_reply =
    Packet.Pkt.make ~port:1 ~ip_src:20 ~ip_dst:10 ~src_port:2 ~dst_port:1 ()
  in
  (* open the session only on b1 *)
  (match Dsl.Compile.process b1 lan_pkt with
  | Dsl.Interp.Fwd _ -> ()
  | Dsl.Interp.Dropped -> Alcotest.fail "outbound dropped");
  (match Dsl.Compile.process b1 wan_reply with
  | Dsl.Interp.Fwd _ -> ()
  | Dsl.Interp.Dropped -> Alcotest.fail "reply should be admitted on b1");
  match Dsl.Compile.process b2 wan_reply with
  | Dsl.Interp.Dropped -> ()
  | Dsl.Interp.Fwd _ -> Alcotest.fail "b2 must not see b1's session"

(* Synthetic per-flow counters whose keys probe the pair-packing edges: a
   part straddling byte 7, a 14-byte key (the widest that packs) and a
   15-byte key (the narrowest that does not).  Every fourth packet of the
   hostile trace erases its key, and the 16-entry map keeps filling up. *)
let counter_nf name key =
  let open Dsl.Ast in
  let put value ok port =
    Map_put { obj = "cnt"; key; value; ok; k = Forward (const ~width:16 port) }
  in
  {
    name;
    devices = 2;
    state = [ Decl_map { name = "cnt"; capacity = 16; init = [] } ];
    process =
      Map_get
        {
          obj = "cnt";
          key;
          found = "f";
          value = "v";
          k =
            If
              ( Field Packet.Field.Dst_port ==. const ~width:16 0,
                Map_erase { obj = "cnt"; key; k = Drop },
                If (Var "f", put (Var "v" +. const 1) "ok1" 1, put (const 1) "ok0" 0) );
        };
  }

let test_pair_key_edges () =
  let open Dsl.Ast in
  let f x = Field x in
  let sp = f Packet.Field.Src_port and dp = f Packet.Field.Dst_port in
  let sip = f Packet.Field.Ip_src and dip = f Packet.Field.Ip_dst in
  let k14 = [ sip; dip; sp; dp; Cast (16, sp +. dp) ] in
  let cases =
    [
      ("straddle 1|3", [ sp; sip; dip ], false);
      ("straddle 3|2", [ sip; Cast (40, dip +. sp) ], false);
      ("14-byte", k14, false);
      ("15-byte", k14 @ [ Cast (8, dp) ], true);
    ]
  in
  let fallback = Telemetry.Counter.make "state.key_string_fallback" in
  Fun.protect ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
  @@ fun () ->
  List.iter
    (fun (label, key, wide) ->
      let nf = counter_nf "pair_edges" key in
      let i_inst = Dsl.Instance.create nf and c_inst = Dsl.Instance.create nf in
      Telemetry.reset ();
      Telemetry.enable ();
      differential_on label nf i_inst c_inst (hostile_trace ~seed:5 2_000);
      Telemetry.disable ();
      let n = Telemetry.Counter.value fallback in
      if wide && n = 0 then Alcotest.failf "%s: expected the string fallback" label;
      if (not wide) && n <> 0 then Alcotest.failf "%s: %d string-fallback ops" label n;
      (* the compiled pair must be the canonical packing of the key's
         string, not merely self-consistent *)
      let entries inst =
        match Dsl.Instance.find inst "cnt" with
        | Dsl.Instance.O_map m -> List.sort compare (State.Map_s.entries m)
        | _ -> Alcotest.fail "cnt is not a map"
      in
      Alcotest.(check (list (pair string int)))
        (label ^ ": same stored keys") (entries i_inst) (entries c_inst))
    cases

(* A Chain_expire sweep purges the firewall's 12-byte flow keys from the
   pair-keyed table, compiled exactly as interpreted. *)
let test_expire_purges_pair_keys () =
  let nf = Nfs.Fw.make ~capacity:64 () in
  let flows =
    Array.init 40 (fun i ->
        Packet.Pkt.make ~port:0 ~ip_src:(0x0a000000 + i) ~ip_dst:0x0a0000ff ~src_port:i
          ~dst_port:80 ~ts_ns:i ())
  in
  let sweeper =
    Packet.Pkt.make ~port:1 ~ip_src:1 ~ip_dst:2 ~src_port:3 ~dst_port:4
      ~ts_ns:(3 * Nfs.Fw.default_expiry_ns) ()
  in
  let i_inst = Dsl.Instance.create nf and c_inst = Dsl.Instance.create nf in
  let size inst =
    match Dsl.Instance.find inst "fw_flows" with
    | Dsl.Instance.O_map m -> State.Map_s.size m
    | _ -> Alcotest.fail "fw_flows is not a map"
  in
  differential_on "fw fill" nf i_inst c_inst flows;
  Alcotest.(check int) "filled" 40 (size c_inst);
  differential_on "fw sweep" nf i_inst c_inst [| sweeper |];
  Alcotest.(check int) "interpreter purged" 0 (size i_inst);
  Alcotest.(check int) "compiled purged" 0 (size c_inst)

(* qcheck: random seeds, random NF from the corpus, strict equivalence *)
let prop_differential =
  QCheck.Test.make ~name:"compiled ≡ interpreter on random hostile traces" ~count:25
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 9))
    (fun (seed, nf_idx) ->
      let name = List.nth Nfs.Registry.extended_names
          (nf_idx mod List.length Nfs.Registry.extended_names) in
      differential (name ^ "/qcheck") (Nfs.Registry.find_exn name)
        (hostile_trace ~seed 500);
      true)

(* Each header field's staged read equals [Pkt.field_int] — on plain
   TCP/UDP packets, on GRE and VXLAN tunnels, on a packet without an
   [encap] (inner fields read 0) and on unnormalized [Other] protocols
   (read back masked to 8 bits).  The NF stores the field under a
   constant key, so the map holds exactly the value read. *)
let test_field_reads () =
  let base = Packet.Pkt.make ~ip_src:0x0a000001 ~ip_dst:0x0a000002 ~src_port:1234 ~dst_port:80 in
  let encap kind in_proto =
    {
      Packet.Pkt.default_encap with
      kind;
      tunnel_id = 0xabcdef;
      in_ip_src = 0xc0a80001;
      in_ip_dst = 0xc0a80002;
      in_proto;
      in_src_port = 5353;
      in_dst_port = 53;
    }
  in
  let pkts =
    [
      base ~port:1 ~size:128 ~ts_ns:99 ();
      base ~proto:Packet.Pkt.Udp ();
      base ~proto:(Packet.Pkt.Other 47) ~encap:(encap Packet.Pkt.Gre (Packet.Pkt.Other 300)) ();
      base ~proto:(Packet.Pkt.Other 4097) ();
      base ~proto:Packet.Pkt.Udp ~encap:(encap Packet.Pkt.Vxlan Packet.Pkt.Udp) ();
    ]
  in
  List.iter
    (fun f ->
      let nf =
        {
          Dsl.Ast.name = "read_" ^ Packet.Field.to_string f;
          devices = 2;
          state = [ Dsl.Ast.Decl_map { name = "m"; capacity = 4; init = [] } ];
          process =
            Dsl.Ast.Map_put
              {
                obj = "m";
                key = [ Dsl.Ast.const ~width:8 0 ];
                value = Dsl.Ast.Field f;
                ok = "ok";
                k = Dsl.Ast.Drop;
              };
        }
      in
      let bound = Dsl.Compile.bind (Dsl.Compile.stage nf (Dsl.Check.check_exn nf)) in
      List.iter
        (fun p ->
          let inst = Dsl.Instance.create nf in
          ignore (Dsl.Compile.process (bound inst) p);
          let read =
            match Dsl.Instance.find inst "m" with
            | Dsl.Instance.O_map m -> List.map snd (State.Map_s.entries m)
            | _ -> []
          in
          Alcotest.(check (list int))
            (Format.asprintf "%s of %a" (Packet.Field.to_string f) Packet.Pkt.pp p)
            [ Packet.Pkt.field_int p f ]
            read)
        pkts)
    Packet.Field.all

let suite =
  [
    Alcotest.test_case "registry NFs: verdicts + op streams" `Slow test_registry_nfs;
    Alcotest.test_case "fig2 micro-NFs" `Quick test_fig2_scenarios;
    Alcotest.test_case "vpp nat44 agrees with compiled nat" `Quick
      test_vpp_nat44_agrees_with_compiled;
    Alcotest.test_case "pool under fault plan matches oracle" `Quick
      test_pool_fault_plan_differential;
    Alcotest.test_case "runner dispatch switch" `Quick test_runner_dispatch;
    Alcotest.test_case "bind isolates per-core state" `Quick test_bind_isolates_state;
    Alcotest.test_case "pair-key edges: straddle, 14 and 15 bytes" `Quick test_pair_key_edges;
    Alcotest.test_case "chain expiry purges pair-keyed flows" `Quick
      test_expire_purges_pair_keys;
    QCheck_alcotest.to_alcotest prop_differential;
    Alcotest.test_case "staged field reads equal Pkt.field_int" `Quick test_field_reads;
  ]
