(* State-compute replication: the digest/replay machinery must be
   observationally invisible.  Differential tests drive SCR execution —
   manual lockstep, the deterministic {!Runtime.Parallel} model and the
   real domain pool (including under an injected fault plan) — against
   the sequential interpreter oracle, checking verdicts, op-event
   streams AND final replica state on the NF's write set.  A qcheck
   property pins the core algebra: digest-apply ∘ digest-derive is the
   identity on the write set for every shipped NF. *)

let ops_pp fmt (e : Dsl.Interp.op_event) =
  Format.fprintf fmt "%s(%b,%d)" e.Dsl.Interp.obj e.Dsl.Interp.write e.Dsl.Interp.expired

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

(* Every packet tunnelled, GRE or VXLAN, over random tunnel ids, inner
   addresses, inner ports and inner TCP / UDP / other protocols: the
   tunnel and inner-field slots of the digest that [hostile_trace] never
   reaches.  Small ranges, so flows and tunnels collide and state is hit. *)
let tunnel_trace ~seed n =
  let rng = Random.State.make [| seed |] in
  let int = Random.State.int rng in
  Array.init n (fun i ->
      let kind = if Random.State.bool rng then Packet.Pkt.Gre else Packet.Pkt.Vxlan in
      let in_proto =
        match int 3 with
        | 0 -> Packet.Pkt.Tcp
        | 1 -> Packet.Pkt.Udp
        | _ -> Packet.Pkt.Other (1 + int 5)
      in
      let port () = match in_proto with Packet.Pkt.Other _ -> 0 | _ -> int 4 in
      let encap =
        {
          Packet.Pkt.default_encap with
          kind;
          tunnel_id = int 6;
          in_ip_src = int 8;
          in_ip_dst = int 8;
          in_proto;
          in_src_port = port ();
          in_dst_port = port ();
        }
      in
      let outer =
        match kind with Packet.Pkt.Gre -> Packet.Pkt.Other 47 | Packet.Pkt.Vxlan -> Packet.Pkt.Udp
      in
      Packet.Pkt.make ~port:(int 2) ~proto:outer ~encap ~ip_src:(int 4) ~ip_dst:(int 4)
        ~src_port:(int 4) ~dst_port:(int 4)
        ~ts_ns:(i * int 5_000_000)
        ())

let verdicts_equal a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

let writers () =
  List.filter
    (fun (nf : Dsl.Ast.t) -> Result.is_ok (Maestro.Scrspec.admissible nf))
    (List.map Nfs.Registry.find_exn Nfs.Registry.extended_names @ Nfs.Scenarios.all ())

(* --- manual lockstep: verdicts, op events, final replicas -------------------- *)

(* Run the trace through the oracle and through [cores] SCR replicas in
   lockstep: packet [i]'s owner is [i mod cores] and runs the full NF;
   everyone else replays the packet's digest.  The owner's verdict and
   op-event stream must match the oracle packet by packet, and every
   replica must end structurally equal to the oracle on the write set. *)
let scr_differential label (nf : Dsl.Ast.t) ~cores trace =
  let info = Dsl.Check.check_exn nf in
  let oracle = Dsl.Instance.create nf in
  let spec =
    match Maestro.Scrspec.admissible nf with
    | Ok s -> s
    | Error e -> Alcotest.failf "%s: expected admissible: %s" label e
  in
  let prog = Runtime.Scr.prepare spec in
  let insts = Array.init cores (fun _ -> Dsl.Instance.create nf) in
  let staged = Dsl.Compile.stage_runner nf info in
  let runners = Array.map (Dsl.Compile.bind_runner staged) insts in
  let reps = Array.map (Runtime.Scr.bind prog) insts in
  let buf = Array.make (max 1 (Runtime.Scr.ints_per_pkt prog)) 0 in
  Array.iteri
    (fun i pkt ->
      let owner = i mod cores in
      let o_ops = ref [] and s_ops = ref [] in
      let a1 = Dsl.Interp.process ~on_op:(fun e -> o_ops := e :: !o_ops) nf info oracle pkt in
      let a2 = Dsl.Compile.run ~on_op:(fun e -> s_ops := e :: !s_ops) runners.(owner) pkt in
      Runtime.Scr.encode prog pkt buf 0;
      Array.iteri (fun c r -> if c <> owner then Runtime.Scr.apply r buf 0) reps;
      if a1 <> a2 then
        Alcotest.failf "%s: verdict diverges at packet %d (%a)" label i Packet.Pkt.pp pkt;
      if !o_ops <> !s_ops then
        Alcotest.failf "%s: op stream diverges at packet %d: oracle [%a] scr [%a]" label i
          (Format.pp_print_list ops_pp)
          (List.rev !o_ops)
          (Format.pp_print_list ops_pp)
          (List.rev !s_ops))
    trace;
  Array.iteri
    (fun c inst ->
      if not (Runtime.Scr.replica_equal spec oracle inst) then
        Alcotest.failf "%s: replica %d diverged from the oracle on the write set" label c)
    insts

let test_lockstep_all_writers () =
  List.iter
    (fun (nf : Dsl.Ast.t) ->
      scr_differential nf.Dsl.Ast.name nf ~cores:4 (hostile_trace ~seed:13 2_000))
    (writers ())

let test_lockstep_tunnels () =
  let names = List.map (fun (nf : Dsl.Ast.t) -> nf.Dsl.Ast.name) (writers ()) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is an SCR writer") true (List.mem name names))
    [ "gre_peer"; "vxlan_fw" ];
  List.iter
    (fun (nf : Dsl.Ast.t) ->
      scr_differential (nf.Dsl.Ast.name ^ " (tunnels)") nf ~cores:4 (tunnel_trace ~seed:19 2_000))
    (writers ())

(* --- qcheck: digest-apply ∘ digest-derive = identity on the write set ------- *)

let replay_is_identity (nf : Dsl.Ast.t) trace =
  let info = Dsl.Check.check_exn nf in
  let full = Dsl.Instance.create nf in
  let runner = Dsl.Compile.make_runner nf info full in
  (* [derive], not [admissible]: the identity must hold for every writer,
     budget or no budget *)
  let spec = Maestro.Scrspec.derive nf in
  let prog = Runtime.Scr.prepare spec in
  let replica = Dsl.Instance.create nf in
  let rep = Runtime.Scr.bind prog replica in
  let buf = Array.make (max 1 (Runtime.Scr.ints_per_pkt prog)) 0 in
  Array.iter
    (fun pkt ->
      ignore (Dsl.Compile.run runner pkt);
      Runtime.Scr.encode prog pkt buf 0;
      Runtime.Scr.apply rep buf 0)
    trace;
  Runtime.Scr.replica_equal spec full replica

let prop_digest_identity =
  QCheck.Test.make ~name:"digest replay is the identity on the write set" ~count:30
    QCheck.(pair small_nat (int_range 50 400))
    (fun (seed, n) ->
      let plain = hostile_trace ~seed n and tunnelled = tunnel_trace ~seed n in
      List.for_all
        (fun (nf : Dsl.Ast.t) -> replay_is_identity nf plain && replay_is_identity nf tunnelled)
        (List.map Nfs.Registry.find_exn Nfs.Registry.extended_names @ Nfs.Scenarios.all ()))

(* --- qcheck: the staged digest layout ----------------------------------------- *)

(* The digest segment of [p] is, in order, [Pkt.field_int p f] for every
   spec field, then port, frame length and timestamp when the spec needs
   them — the layout the ring, the log and the wire size all assume —
   and decoding it gives back [p] on each of those. *)
let layout_roundtrips ((spec : Maestro.Scrspec.t), prog) (p : Packet.Pkt.t) =
  let stride = Runtime.Scr.ints_per_pkt prog in
  let buf = Array.make (stride + 2) (-1) in
  Runtime.Scr.encode prog p buf 1;
  let extras =
    List.filter_map
      (fun (needed, v) -> if needed then Some v else None)
      [
        (spec.Maestro.Scrspec.needs_port, p.Packet.Pkt.port);
        (spec.Maestro.Scrspec.needs_len, p.Packet.Pkt.size);
        (spec.Maestro.Scrspec.needs_ts, p.Packet.Pkt.ts_ns);
      ]
  in
  let expected = List.map (Packet.Pkt.field_int p) spec.Maestro.Scrspec.fields @ extras in
  let q = Runtime.Scr.decode prog buf 1 in
  Array.to_list (Array.sub buf 1 stride) = expected
  && buf.(0) = -1
  && buf.(stride + 1) = -1
  && List.for_all
       (fun f -> Packet.Pkt.field_int q f = Packet.Pkt.field_int p f)
       spec.Maestro.Scrspec.fields
  && ((not spec.Maestro.Scrspec.needs_port) || q.Packet.Pkt.port = p.Packet.Pkt.port)
  && ((not spec.Maestro.Scrspec.needs_len) || q.Packet.Pkt.size = p.Packet.Pkt.size)
  && ((not spec.Maestro.Scrspec.needs_ts) || q.Packet.Pkt.ts_ns = p.Packet.Pkt.ts_ns)

let prop_decode_encode =
  let progs =
    List.map
      (fun nf ->
        let spec = Maestro.Scrspec.derive nf in
        (spec, Runtime.Scr.prepare spec))
      (List.map Nfs.Registry.find_exn Nfs.Registry.extended_names @ Nfs.Scenarios.all ())
  in
  QCheck.Test.make ~name:"decode inverts encode on the digest fields" ~count:50
    QCheck.(pair small_nat (int_range 1 50))
    (fun (seed, n) ->
      let trace = Array.append (hostile_trace ~seed n) (tunnel_trace ~seed n) in
      List.for_all (fun prog -> Array.for_all (layout_roundtrips prog) trace) progs)

(* --- allocation: the per-packet digest path is closure-free ------------------- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_digest_allocation () =
  let nf = Nfs.Registry.find_exn "gre_peer" in
  let spec =
    match Maestro.Scrspec.admissible nf with Ok s -> s | Error e -> Alcotest.fail e
  in
  let prog = Runtime.Scr.prepare spec in
  let stride = Runtime.Scr.ints_per_pkt prog in
  let trace = tunnel_trace ~seed:5 4_096 in
  (* 32-packet batches keep every digest on the minor heap *)
  let batch = 32 in
  let nb = Array.length trace / batch in
  let digests = Array.make nb [||] in
  let encode_all () =
    for b = 0 to nb - 1 do
      digests.(b) <- Runtime.Scr.encode_batch prog trace ~lo:(b * batch) ~len:batch
    done
  in
  encode_all ();
  let words = minor_words encode_all in
  (* the digest arrays, one header word each, and nothing else *)
  let expected = float_of_int (nb * ((batch * stride) + 1)) in
  if words > expected then
    Alcotest.failf "encode_batch allocated %.0f words, only its digests take %.0f" words
      expected;
  let rep = Runtime.Scr.bind prog (Dsl.Instance.create nf) in
  let apply_all () =
    for b = 0 to nb - 1 do
      Runtime.Scr.apply_batch rep digests.(b) ~npkts:batch
    done
  in
  apply_all ();
  let per_pkt = minor_words apply_all /. float_of_int (nb * batch) in
  if per_pkt >= 1. then
    Alcotest.failf "apply_batch allocated %.1f words/pkt; row replay must build no packet"
      per_pkt

(* --- compiled row replay vs the decode + interpreter oracle ------------------- *)

(* A writer whose slice keeps [Set_field]s: the protocol is overwritten
   with [ip_src + 250], which exceeds 255 on part of the trace and must
   read back masked to 8 bits, and the source port with a value derived
   from the destination port; both then feed a map put.  The [Eth_dst]
   write has no digest slot (nothing reads it) and must be dropped. *)
let rewriting_nf =
  let open Dsl.Ast in
  let f x = Field x in
  {
    name = "proto_rewrite";
    devices = 2;
    state = [ Decl_map { name = "rw_seen"; capacity = 1024; init = [] } ];
    process =
      Set_field
        ( Packet.Field.Eth_dst,
          const ~width:48 7,
          Set_field
            ( Packet.Field.Ip_proto,
              f Packet.Field.Ip_src +. const 250,
              Set_field
                ( Packet.Field.Src_port,
                  f Packet.Field.Dst_port *. const ~width:16 3,
                  Map_put
                    {
                      obj = "rw_seen";
                      key = [ f Packet.Field.Src_port; f Packet.Field.Ip_dst ];
                      value = f Packet.Field.Ip_proto;
                      ok = "rw_ok";
                      k = Forward (const ~width:8 1);
                    } ) ) );
  }

(* Replay the trace's digest into one replica through the compiled rows
   and into another through [decode] + the interpreter, in chunks; the
   two must be equal replicas after every chunk, and row replay must
   leave the digest untouched (peers replay the same array). *)
let rows_equal_oracle label (nf : Dsl.Ast.t) trace =
  let spec = Maestro.Scrspec.derive nf in
  let rows = Runtime.Scr.prepare ~compiled:true spec in
  let oracle = Runtime.Scr.prepare ~compiled:false spec in
  let stride = Runtime.Scr.ints_per_pkt rows in
  let n = Array.length trace in
  let digest = Runtime.Scr.encode_batch rows trace ~lo:0 ~len:n in
  let pristine = Array.copy digest in
  let a = Dsl.Instance.create nf and b = Dsl.Instance.create nf in
  let ra = Runtime.Scr.bind rows a and rb = Runtime.Scr.bind oracle b in
  let chunk = 97 in
  let lo = ref 0 in
  while !lo < n do
    for i = !lo to min n (!lo + chunk) - 1 do
      Runtime.Scr.apply ra digest (i * stride);
      Runtime.Scr.apply rb digest (i * stride)
    done;
    lo := !lo + chunk;
    if not (Runtime.Scr.replica_equal spec a b) then
      Alcotest.failf "%s: row replay diverges from the oracle by packet %d" label (min n !lo)
  done;
  if digest <> pristine then Alcotest.failf "%s: row replay wrote the digest" label

let test_rows_equal_oracle () =
  List.iter
    (fun (nf : Dsl.Ast.t) ->
      let name = nf.Dsl.Ast.name in
      rows_equal_oracle name nf (hostile_trace ~seed:41 1_500);
      rows_equal_oracle (name ^ " (tunnels)") nf (tunnel_trace ~seed:43 1_500))
    (writers ())

let test_rows_rewrite_fields () =
  let nf = rewriting_nf in
  let spec = Maestro.Scrspec.derive nf in
  Alcotest.(check bool) "the slice keeps the field writes" true
    (match spec.Maestro.Scrspec.slice.Dsl.Ast.process with
    | Dsl.Ast.Set_field _ -> true
    | _ -> false);
  Alcotest.(check bool) "the dead Eth_dst write has no slot" false
    (List.mem Packet.Field.Eth_dst spec.Maestro.Scrspec.fields);
  let trace = hostile_trace ~seed:47 800 in
  Alcotest.(check bool) "some rewritten protocol exceeds 255" true
    (Array.exists (fun p -> p.Packet.Pkt.ip_src + 250 > 255) trace);
  rows_equal_oracle "proto_rewrite" nf trace;
  rows_equal_oracle "proto_rewrite (tunnels)" nf (tunnel_trace ~seed:53 800);
  Alcotest.(check bool) "row replay is the identity on the write set" true
    (replay_is_identity nf trace)

(* The digest layout [Scr.prepare] stages: the spec's fields, then the
   port, length and timestamp slots the spec needs, in that order. *)
let row_layout (spec : Maestro.Scrspec.t) =
  let fields = Array.of_list spec.Maestro.Scrspec.fields in
  let next = ref (Array.length fields) in
  let extra needed =
    if needed then begin
      incr next;
      !next - 1
    end
    else -1
  in
  let port_slot = extra spec.Maestro.Scrspec.needs_port in
  let len_slot = extra spec.Maestro.Scrspec.needs_len in
  let ts_slot = extra spec.Maestro.Scrspec.needs_ts in
  { Dsl.Compile.stride = !next; fields; port_slot; len_slot; ts_slot }

let raises what f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

(* Both shapes of row program: [proto_rewrite] copies its segment before
   writing fields, fw's slice reads the caller's row in place. *)
let test_run_row_bounds () =
  List.iter
    (fun (nf : Dsl.Ast.t) ->
      let spec = Maestro.Scrspec.derive nf in
      let slice = spec.Maestro.Scrspec.slice in
      let info = Dsl.Check.check_exn slice in
      let layout = row_layout spec in
      let stride = layout.Dsl.Compile.stride in
      let prog = Dsl.Compile.stage_rows slice info layout in
      let b = Dsl.Compile.bind_rows prog (Dsl.Instance.create nf) in
      let row = Array.make (2 * stride) 1 in
      Dsl.Compile.run_row b row 0;
      Dsl.Compile.run_row b row stride;
      List.iter
        (fun off ->
          raises
            (Printf.sprintf "%s: offset %d" nf.Dsl.Ast.name off)
            (fun () -> Dsl.Compile.run_row b row off))
        [ -1; stride + 1; 2 * stride; max_int; min_int ];
      raises "a read with no slot" (fun () ->
          ignore (Dsl.Compile.stage_rows slice info { layout with fields = [||] }));
      raises "a slot past the stride" (fun () ->
          ignore (Dsl.Compile.stage_rows slice info { layout with port_slot = stride }));
      raises "a program that forwards" (fun () ->
          ignore (Dsl.Compile.stage_rows nf (Dsl.Check.check_exn nf) layout)))
    [ rewriting_nf; Nfs.Registry.find_exn "fw" ]

(* --- crash mid-stream: rebuild from the retained digest log ------------------ *)

let test_rebuild_from_digest_log () =
  let nf = Nfs.Registry.find_exn "fw" in
  let trace = hostile_trace ~seed:21 1_500 in
  let spec =
    match Maestro.Scrspec.admissible nf with Ok s -> s | Error e -> Alcotest.fail e
  in
  let prog = Runtime.Scr.prepare spec in
  let stride = Runtime.Scr.ints_per_pkt prog in
  let log = Runtime.Scr.encode_batch prog trace ~lo:0 ~len:(Array.length trace) in
  let reference = Dsl.Instance.create nf in
  let ref_rep = Runtime.Scr.bind prog reference in
  Runtime.Scr.apply_batch ref_rep log ~npkts:(Array.length trace);
  (* the victim applies half the stream, "crashes", is reset to initial
     state and REBOUND (reset replaces the containers; stale bindings
     would write into the orphaned state), then rebuilds from the
     retained log before replaying the rest — the pool's crash hook *)
  let victim = Dsl.Instance.create nf in
  let vic_rep = ref (Runtime.Scr.bind prog victim) in
  let half = Array.length trace / 2 in
  for i = 0 to half - 1 do
    Runtime.Scr.apply !vic_rep log (i * stride)
  done;
  Dsl.Instance.reset victim nf;
  vic_rep := Runtime.Scr.bind prog victim;
  for i = 0 to half - 1 do
    Runtime.Scr.apply !vic_rep log (i * stride)
  done;
  for i = half to Array.length trace - 1 do
    Runtime.Scr.apply !vic_rep log (i * stride)
  done;
  Alcotest.(check bool) "rebuilt replica matches the reference" true
    (Runtime.Scr.replica_equal spec reference victim)

(* --- the deterministic model and the ladder ---------------------------------- *)

let scr_plan ?(cores = 4) name =
  let request = { Maestro.Pipeline.default_request with cores; strategy = `Force_scr } in
  Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn name)

let test_parallel_model_matches_oracle () =
  List.iter
    (fun name ->
      let nf = Nfs.Registry.find_exn name in
      let trace = hostile_trace ~seed:17 2_500 in
      let o = scr_plan name in
      Alcotest.(check string)
        (name ^ " strategy") "state-compute-replication"
        (Maestro.Plan.strategy_name o.Maestro.Pipeline.plan.Maestro.Plan.strategy);
      let seq = Runtime.Parallel.run_sequential nf trace in
      let par = Runtime.Parallel.run o.Maestro.Pipeline.plan trace in
      Alcotest.(check bool)
        (name ^ " verdicts == sequential")
        true
        (verdicts_equal seq par.Runtime.Parallel.verdicts);
      (* round-robin spray: shares balanced by construction *)
      Alcotest.(check bool)
        (name ^ " balanced")
        true
        (Runtime.Dispatch.imbalance par.Runtime.Parallel.stats.Runtime.Parallel.per_core_pkts
        < 1.01))
    [ "fw"; "dbridge"; "lb" ]

let test_auto_takes_scr_rung_for_blocked_nfs () =
  let o = Maestro.Pipeline.parallelize_exn (Nfs.Registry.find_exn "dbridge") in
  Alcotest.(check string) "dbridge rung" "state-compute-replication"
    (Maestro.Ladder.rung_name o.Maestro.Pipeline.ladder.Maestro.Ladder.chosen);
  let step =
    List.find
      (fun (s : Maestro.Ladder.step) -> s.Maestro.Ladder.rung = Maestro.Ladder.Scr)
      o.Maestro.Pipeline.ladder.Maestro.Ladder.steps
  in
  Alcotest.(check bool) "scr step taken" true step.Maestro.Ladder.taken;
  Alcotest.(check bool) "reason quotes the digest cost" true
    (let r = step.Maestro.Ladder.reason in
     let has sub =
       let n = String.length sub and m = String.length r in
       let rec go i = i + n <= m && (String.sub r i n = sub || go (i + 1)) in
       go 0
     in
     has "digest");
  (* read-only state: SCR buys nothing, the rung must refuse *)
  match Maestro.Scrspec.admissible (Nfs.Registry.find_exn "sbridge") with
  | Ok _ -> Alcotest.fail "sbridge must not be SCR-admissible"
  | Error _ -> ()

(* --- the real domain pool ----------------------------------------------------- *)

let test_pool_scr_differential () =
  let nf = Nfs.Registry.find_exn "fw" in
  let trace = hostile_trace ~seed:29 4_000 in
  let o = scr_plan "fw" in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let pool = Runtime.Pool.create ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let verdicts = Runtime.Pool.run pool o.Maestro.Pipeline.plan trace in
  Alcotest.(check bool) "pool scr verdicts == sequential" true (verdicts_equal seq verdicts);
  let s = Runtime.Pool.stats pool in
  (* 125 batches broadcast to 3 non-owners each *)
  Alcotest.(check int) "replays scheduled" (125 * 3) s.Runtime.Pool.scr_replays;
  Alcotest.(check bool) "digest bytes accounted" true (s.Runtime.Pool.scr_digest_bytes > 0);
  Alcotest.(check int) "no rebuilds without faults" 0 s.Runtime.Pool.scr_rebuilds;
  Alcotest.(check int) "nothing dropped" 0 s.Runtime.Pool.dropped_batches

(* Crash mid-epoch under an injected fault plan: the respawned worker
   must rebuild its replica from the digest stream before rejoining, and
   verdicts must still equal the sequential oracle. *)
let test_pool_scr_fault_plan () =
  (match Faults.parse "crash@1:2; crash@2:5" with
  | Ok plan -> Faults.install plan
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Faults.clear @@ fun () ->
  let nf = Nfs.Registry.find_exn "fw" in
  let trace = hostile_trace ~seed:31 4_000 in
  let o = scr_plan "fw" in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let pool = Runtime.Pool.create ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let verdicts = Runtime.Pool.run pool o.Maestro.Pipeline.plan trace in
  let s = Runtime.Pool.stats pool in
  Alcotest.(check bool) "at least one restart" true (s.Runtime.Pool.restarts >= 1);
  Alcotest.(check bool) "replicas rebuilt from the digest stream" true
    (s.Runtime.Pool.scr_rebuilds >= 1);
  Alcotest.(check bool) "pool scr verdicts == sequential under faults" true
    (verdicts_equal seq verdicts)

let suite =
  [
    Alcotest.test_case "lockstep differential (all writers)" `Quick test_lockstep_all_writers;
    Alcotest.test_case "lockstep differential (tunnels)" `Quick test_lockstep_tunnels;
    QCheck_alcotest.to_alcotest prop_digest_identity;
    QCheck_alcotest.to_alcotest prop_decode_encode;
    Alcotest.test_case "digest path allocation" `Quick test_digest_allocation;
    Alcotest.test_case "crash rebuild from digest log" `Quick test_rebuild_from_digest_log;
    Alcotest.test_case "parallel model matches oracle" `Quick
      test_parallel_model_matches_oracle;
    Alcotest.test_case "auto takes the scr rung for blocked NFs" `Quick
      test_auto_takes_scr_rung_for_blocked_nfs;
    Alcotest.test_case "pool scr differential" `Quick test_pool_scr_differential;
    Alcotest.test_case "pool scr under fault plan" `Quick test_pool_scr_fault_plan;
    Alcotest.test_case "row replay equals the decode oracle" `Quick test_rows_equal_oracle;
    Alcotest.test_case "row replay of rewritten fields" `Quick test_rows_rewrite_fields;
    Alcotest.test_case "run_row checks its offset" `Quick test_run_row_bounds;
  ]
