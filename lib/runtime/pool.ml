(* Persistent worker-domain pool fed by bounded SPSC rings of packet
   batches.  Spawning an OCaml domain costs tens of microseconds, which
   would dominate short runs the way per-packet dispatch cost dominates
   the stateful-NF studies this repo models.  The pool spawns [cores]
   domains once and feeds them DPDK-burst-style batches (default 32
   packets) through single-producer single-consumer rings, so repeated
   runs pay only the enqueue/dequeue cost.

   The pool is supervised (paper §4.4's failure story made executable):
   every worker loop runs behind an exception barrier; the producer — the
   only thread that can safely join and respawn a domain — detects deaths,
   consults {!Supervisor} for a restart-with-backoff or give-up decision,
   replays the crashed batch inline (BEFORE respawning: re-queueing it
   would run it after later batches of the same core and break per-core
   arrival order, i.e. sequential equivalence), and on permanent failure
   drains the dead core's ring inline and remaps the NIC indirection
   table so its RSS buckets migrate to live cores ({!Nic.Reta.remap}).
   Full rings apply a configurable backpressure policy instead of the
   unbounded producer spin that livelocked on a dead consumer. *)

let default_batch_size = 32
let default_ring_capacity = 1024

let c_batches = Telemetry.Counter.make "pool.batches" ~doc:"packet batches pushed to pool rings"
let c_pkts = Telemetry.Counter.make "pool.pkts" ~doc:"packets executed on the domain pool"
let c_stalls =
  Telemetry.Counter.make "pool.ring_full_stalls" ~doc:"producer stalls on a full pool ring"
let c_spawns = Telemetry.Counter.make "pool.domain_spawns" ~doc:"worker domains spawned by pools"

let c_crashes =
  Telemetry.Counter.make "pool.worker_crashes" ~doc:"worker domains killed by an exception"

let c_dropped_batches =
  Telemetry.Counter.make "pool.dropped_batches" ~doc:"batches dropped by backpressure"

let c_dropped_pkts =
  Telemetry.Counter.make "pool.dropped_pkts" ~doc:"packets dropped by backpressure"

let c_inline =
  Telemetry.Counter.make "pool.inline_batches"
    ~doc:"batches the producer ran inline (crash replay and failed-core drains)"

let c_remaps =
  Telemetry.Counter.make "pool.reta_remaps"
    ~doc:"indirection-table remaps after permanent core failures"

let c_rebalances =
  Telemetry.Counter.make "pool.rebalances"
    ~doc:"online RSS++ rebalances applied at epoch boundaries"

let c_rebalances_forced =
  Telemetry.Counter.make "pool.rebalances_forced"
    ~doc:"rebalances forced by a permanent core failure"

let c_moved_buckets =
  Telemetry.Counter.make "pool.migrated_buckets"
    ~doc:"indirection buckets moved by the online balancer"

let c_moved_flows =
  Telemetry.Counter.make "pool.migrated_flows"
    ~doc:"flow states handed between cores by the online balancer"

let c_migration_drops =
  Telemetry.Counter.make "pool.migration_drops"
    ~doc:"flow states evicted during migration because the destination was full"

let c_scr_replays =
  Telemetry.Counter.make "pool.scr_replays"
    ~doc:"foreign-batch digest replays scheduled by the SCR dispatcher"

let c_scr_rebuilds =
  Telemetry.Counter.make "pool.scr_rebuilds"
    ~doc:"SCR replicas rebuilt from the digest stream after a worker death"

let c_scr_digest_bytes =
  Telemetry.Counter.make "pool.scr_digest_bytes"
    ~doc:"update-digest bytes broadcast by the SCR dispatcher"

(* --- bounded SPSC ring ----------------------------------------------------- *)

module Ring = struct
  (* One producer (the dispatching domain), one consumer (the worker).
     [head] and [tail] are monotonically increasing; publication of the
     slot write is ordered by the subsequent [Atomic.set] of [tail]
     (OCaml's memory model makes atomic writes release points). *)
  type 'a t = {
    slots : 'a option array;
    mask : int;
    head : int Atomic.t; (* consumer position *)
    tail : int Atomic.t; (* producer position *)
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Pool.Ring.create: capacity";
    let cap = ref 1 in
    while !cap < capacity do
      cap := !cap * 2
    done;
    { slots = Array.make !cap None; mask = !cap - 1; head = Atomic.make 0; tail = Atomic.make 0 }

  let capacity t = t.mask + 1
  let length t = Atomic.get t.tail - Atomic.get t.head
  let is_empty t = length t = 0

  let try_push t x =
    let tail = Atomic.get t.tail in
    if tail - Atomic.get t.head > t.mask then false
    else begin
      t.slots.(tail land t.mask) <- Some x;
      Atomic.set t.tail (tail + 1);
      true
    end

  let pop t =
    let head = Atomic.get t.head in
    if Atomic.get t.tail = head then None
    else begin
      let i = head land t.mask in
      let x = t.slots.(i) in
      t.slots.(i) <- None;
      Atomic.set t.head (head + 1);
      x
    end
end

(* --- tasks and backpressure ------------------------------------------------- *)

(* A ring entry: the closure plus its packet count, so drops and inline
   replays can be accounted in packets as well as batches. *)
type task = { run : unit -> unit; npkts : int }

type backpressure =
  | Block  (** spin until there is room (checking worker liveness while spinning) *)
  | Drop of { max_spins : int }  (** bounded spin, then drop the batch *)
  | Shed  (** drop immediately when the ring is full *)

let backpressure_name = function
  | Block -> "block"
  | Drop { max_spins } -> Printf.sprintf "drop(%d)" max_spins
  | Shed -> "shed"

let default_drop_spins = 4096

(* --- workers ---------------------------------------------------------------- *)

type worker = {
  core : int;
  ring : task Ring.t;
  mutex : Mutex.t;
  cond : Condition.t;
  stop : bool Atomic.t;
  alive : bool Atomic.t;  (* cleared by the exception barrier on crash *)
  failed : bool Atomic.t;  (* permanent: restart budget exhausted *)
  heartbeat : int Atomic.t;  (* batches completed; read by the producer *)
  batches_started : int Atomic.t;  (* monotonic attempt index for fault hooks *)
  mutable in_flight : task option;
      (* the batch being executed; left set on crash and replayed inline
         by the producer.  Published by the release store to [alive]. *)
  mutable last_exn : string;
  mutable domain : unit Domain.t option;
}

type stats = {
  runs : int;  (** plans executed since the pool was created *)
  batches : int;  (** batches pushed over the pool's lifetime *)
  pkts : int;  (** packets executed over the pool's lifetime *)
  ring_full_stalls : int;  (** producer stalls on a full ring *)
  last_per_core_pkts : int array;  (** dispatch counts of the most recent run *)
  dropped_batches : int;  (** batches dropped by backpressure *)
  dropped_pkts : int;  (** packets dropped by backpressure *)
  per_core_drops : int array;  (** lifetime dropped batches per core *)
  restarts : int;  (** supervisor restarts over the pool's lifetime *)
  failed_cores : int list;  (** cores declared permanently failed *)
  inline_batches : int;  (** batches the producer ran inline *)
  rebalances : int;  (** online rebalances applied over the pool's lifetime *)
  forced_rebalances : int;  (** rebalances forced by a core write-off *)
  migrated_buckets : int;  (** indirection buckets moved by the balancer *)
  migrated_flows : int;  (** flow states handed between cores *)
  migration_drops : int;  (** flow states evicted (destination full) *)
  last_core_share : float array;  (** per-core load share of the last run *)
  last_assignment : int array;  (** per-packet core of the last run *)
  last_rebalance_points : int list;
      (** packet offsets (ascending) where the last run changed the table *)
  scr_replays : int;  (** foreign-batch digest replays scheduled (SCR runs) *)
  scr_rebuilds : int;  (** replicas rebuilt from the digest stream after a death *)
  scr_digest_bytes : int;  (** update-digest bytes broadcast (SCR runs) *)
  switches : int;  (** adaptive discipline switches committed (lifetime) *)
  flap_suppressed : int;  (** adaptive switches suppressed by the cooldown (lifetime) *)
  switch_epochs : (int * Maestro.Ladder.rung) list;
      (** committed switches of the last adaptive run: (epoch, rung adopted) *)
  rung_residency : (Maestro.Ladder.rung * int) list;
      (** epochs spent per rung in the last adaptive run *)
}

type t = {
  cores : int;
  batch_size : int;
  backpressure : backpressure;
  supervisor : Supervisor.t;
  workers : worker array;
  mutable runs : int;
  mutable batches : int;
  mutable total_pkts : int;
  mutable stalls : int;
  mutable dropped_batches : int;
  mutable dropped_pkts : int;
  per_core_drops : int array;
  mutable inline_batches : int;
  mutable last_per_core : int array;
  mutable rebalances : int;
  mutable forced_rebalances : int;
  mutable migrated_buckets : int;
  mutable migrated_flows : int;
  mutable migration_drops : int;
  mutable last_share : float array;
  mutable last_assignment : int array;
  mutable last_points : int list;
  mutable scr_replays : int;
  mutable scr_rebuilds : int;
  mutable scr_digest_bytes : int;
  mutable adaptive_switches : int;
  mutable adaptive_flaps : int;
  mutable adaptive_switch_epochs : (int * Maestro.Ladder.rung) list;
  mutable adaptive_residency : (Maestro.Ladder.rung * int) list;
  mutable scr_crash_hook : (int -> unit) option;
      (* set for the duration of an SCR run: rebuild [core]'s replica from
         the retained digest stream.  Called only by the producer, inside
         {!ensure_live}, after joining the dead domain (the join is the
         happens-before edge that publishes the worker's progress counter)
         and before the crashed batch is replayed inline. *)
}

let worker_loop w () =
  let rec go () =
    match Ring.pop w.ring with
    | Some task ->
        w.in_flight <- Some task;
        let b = Atomic.fetch_and_add w.batches_started 1 in
        Faults.worker_batch ~core:w.core ~batch:b;
        task.run ();
        w.in_flight <- None;
        Atomic.incr w.heartbeat;
        go ()
    | None ->
        if not (Atomic.get w.stop) then begin
          (* brief spin keeps latency low while a run is in flight... *)
          let rec spin n = if n > 0 && Ring.is_empty w.ring then (Domain.cpu_relax (); spin (n - 1)) in
          spin 64;
          (* ...then block so an idle pool costs nothing between runs *)
          if Ring.is_empty w.ring then begin
            Mutex.lock w.mutex;
            while Ring.is_empty w.ring && not (Atomic.get w.stop) do
              Condition.wait w.cond w.mutex
            done;
            Mutex.unlock w.mutex
          end;
          go ()
        end
  in
  (* The exception barrier: any exception — injected or real — marks the
     worker dead instead of silently killing the domain.  The [alive]
     store is a release point publishing [in_flight] and [last_exn] to
     the producer. *)
  try go ()
  with e ->
    w.last_exn <- Printexc.to_string e;
    Telemetry.Counter.incr c_crashes;
    Atomic.set w.alive false

let spawn_worker w =
  Telemetry.Counter.incr c_spawns;
  Atomic.set w.alive true;
  w.domain <- Some (Domain.spawn (worker_loop w))

let create ?(batch_size = default_batch_size) ?(ring_capacity = default_ring_capacity)
    ?(backpressure = Block) ?supervisor ~cores () =
  if cores < 1 then invalid_arg "Pool.create: cores";
  if batch_size < 1 then invalid_arg "Pool.create: batch_size";
  (match backpressure with
  | Drop { max_spins } when max_spins < 0 -> invalid_arg "Pool.create: max_spins"
  | _ -> ());
  let workers =
    Array.init cores (fun core ->
        {
          core;
          ring = Ring.create ~capacity:ring_capacity;
          mutex = Mutex.create ();
          cond = Condition.create ();
          stop = Atomic.make false;
          alive = Atomic.make false;
          failed = Atomic.make false;
          heartbeat = Atomic.make 0;
          batches_started = Atomic.make 0;
          in_flight = None;
          last_exn = "";
          domain = None;
        })
  in
  Array.iter spawn_worker workers;
  {
    cores;
    batch_size;
    backpressure;
    supervisor = Supervisor.create ?config:supervisor ~cores ();
    workers;
    runs = 0;
    batches = 0;
    total_pkts = 0;
    stalls = 0;
    dropped_batches = 0;
    dropped_pkts = 0;
    per_core_drops = Array.make cores 0;
    inline_batches = 0;
    last_per_core = [||];
    rebalances = 0;
    forced_rebalances = 0;
    migrated_buckets = 0;
    migrated_flows = 0;
    migration_drops = 0;
    last_share = [||];
    last_assignment = [||];
    last_points = [];
    scr_replays = 0;
    scr_rebuilds = 0;
    scr_digest_bytes = 0;
    adaptive_switches = 0;
    adaptive_flaps = 0;
    adaptive_switch_epochs = [];
    adaptive_residency = [];
    scr_crash_hook = None;
  }

let cores t = t.cores
let batch_size t = t.batch_size
let backpressure t = t.backpressure
let supervisor t = t.supervisor

let live_cores t =
  Array.to_list t.workers
  |> List.filter_map (fun w -> if Atomic.get w.failed then None else Some w.core)

let failed_cores t =
  Array.to_list t.workers
  |> List.filter_map (fun w -> if Atomic.get w.failed then Some w.core else None)

let shutdown t =
  Array.iter
    (fun w ->
      match w.domain with
      | None -> ()
      | Some d ->
          Atomic.set w.stop true;
          Mutex.lock w.mutex;
          Condition.signal w.cond;
          Mutex.unlock w.mutex;
          Domain.join d;
          w.domain <- None)
    t.workers

let stats t =
  {
    runs = t.runs;
    batches = t.batches;
    pkts = t.total_pkts;
    ring_full_stalls = t.stalls;
    last_per_core_pkts = Array.copy t.last_per_core;
    dropped_batches = t.dropped_batches;
    dropped_pkts = t.dropped_pkts;
    per_core_drops = Array.copy t.per_core_drops;
    restarts = Supervisor.restarts t.supervisor;
    failed_cores = failed_cores t;
    inline_batches = t.inline_batches;
    rebalances = t.rebalances;
    forced_rebalances = t.forced_rebalances;
    migrated_buckets = t.migrated_buckets;
    migrated_flows = t.migrated_flows;
    migration_drops = t.migration_drops;
    last_core_share = Array.copy t.last_share;
    last_assignment = Array.copy t.last_assignment;
    last_rebalance_points = t.last_points;
    scr_replays = t.scr_replays;
    scr_rebuilds = t.scr_rebuilds;
    scr_digest_bytes = t.scr_digest_bytes;
    switches = t.adaptive_switches;
    flap_suppressed = t.adaptive_flaps;
    switch_epochs = t.adaptive_switch_epochs;
    rung_residency = t.adaptive_residency;
  }

(* --- supervision (producer side) -------------------------------------------- *)

let run_inline t task =
  t.inline_batches <- t.inline_batches + 1;
  Telemetry.Counter.incr c_inline;
  task.run ()

(* Drain a permanently failed worker's ring on the producer: the consumer
   is gone, the batches are already accounted in [remaining], and FIFO
   order preserves per-core arrival order. *)
let drain_inline t w =
  let rec go () =
    match Ring.pop w.ring with
    | Some task ->
        run_inline t task;
        go ()
    | None -> ()
  in
  go ()

(* Bring [w] back to a usable state if its domain died.  Returns [`Ok]
   when the worker is (again) consuming its ring, [`Failed] when it is
   permanently gone and the producer must run this core's work inline.
   Only the producer calls this, so join/respawn are race-free. *)
let ensure_live t w =
  if Atomic.get w.failed then `Failed
  else if Atomic.get w.alive then `Ok
  else begin
    (* the barrier ran: the domain is exiting — join it *)
    (match w.domain with
    | Some d ->
        Domain.join d;
        w.domain <- None
    | None -> ());
    let crashed = w.in_flight in
    w.in_flight <- None;
    (* SCR: the dead core's replica may be stale (an injected crash fires
       before the batch mutates it); rebuild it from the retained digest
       stream BEFORE any inline replay touches it *)
    (match t.scr_crash_hook with Some rebuild -> rebuild w.core | None -> ());
    match Supervisor.on_death t.supervisor ~core:w.core with
    | `Restart backoff ->
        (* replay the crashed batch inline BEFORE respawning: re-queueing
           it would run it after later batches of this core and reorder
           the per-core packet stream *)
        Option.iter (run_inline t) crashed;
        for _ = 1 to backoff do
          Domain.cpu_relax ()
        done;
        spawn_worker w;
        `Ok
    | `Give_up ->
        Atomic.set w.failed true;
        Option.iter (run_inline t) crashed;
        drain_inline t w;
        `Failed
  end

let signal w =
  Mutex.lock w.mutex;
  Condition.signal w.cond;
  Mutex.unlock w.mutex

(* Submit one task to [core], honoring the backpressure policy ([bp],
   defaulting to the pool's own — SCR runs force [Block]: a dropped
   digest batch would silently diverge a replica).  Returns how the task
   was disposed of; [`Dropped] tasks never run. *)
let submit ?bp t ~core task =
  let bp = Option.value ~default:t.backpressure bp in
  let w = t.workers.(core) in
  match ensure_live t w with
  | `Failed ->
      run_inline t task;
      `Inline
  | `Ok -> (
      let note_stall stalled =
        if not !stalled then begin
          stalled := true;
          t.stalls <- t.stalls + 1;
          Telemetry.Counter.incr c_stalls
        end
      in
      let pushed =
        if Ring.try_push w.ring task then true
        else begin
          let stalled = ref false in
          match bp with
          | Shed ->
              note_stall stalled;
              false
          | Drop { max_spins } ->
              note_stall stalled;
              let spins = ref 0 in
              let ok = ref false in
              while (not !ok) && !spins < max_spins do
                Domain.cpu_relax ();
                incr spins;
                ok := Ring.try_push w.ring task
              done;
              !ok
          | Block ->
              (* spin, but recheck liveness: a full ring with a dead
                 consumer must fail over, not livelock the producer *)
              note_stall stalled;
              let ok = ref false in
              let gone = ref false in
              let spins = ref 0 in
              while (not !ok) && not !gone do
                Domain.cpu_relax ();
                incr spins;
                if !spins land 63 = 0 then begin
                  match ensure_live t w with
                  | `Failed -> gone := true
                  | `Ok -> ok := Ring.try_push w.ring task
                end
                else ok := Ring.try_push w.ring task
              done;
              !ok
        end
      in
      if pushed then begin
        t.batches <- t.batches + 1;
        Telemetry.Counter.incr c_batches;
        signal w;
        `Pushed
      end
      else if Atomic.get w.failed then begin
        (* the blocking path failed over: the ring was drained inline,
           so running this task inline keeps per-core order *)
        run_inline t task;
        `Inline
      end
      else begin
        t.dropped_batches <- t.dropped_batches + 1;
        t.dropped_pkts <- t.dropped_pkts + task.npkts;
        t.per_core_drops.(core) <- t.per_core_drops.(core) + 1;
        Telemetry.Counter.incr c_dropped_batches;
        Telemetry.Counter.add c_dropped_pkts task.npkts;
        `Dropped
      end)

(* --- plan execution --------------------------------------------------------- *)

(* Conservative static write classification, shared by the lock and TM
   disciplines: OCaml has no transactional rollback, so a packet that *may*
   write on any path takes the write lock up front.  The speculative
   read→restart discipline is modeled deterministically in {!Parallel.run};
   this runtime demonstrates race-free real-domain execution.  The
   classification itself is {!Maestro.Scrspec}'s — the same walk that
   derives the SCR write-slice. *)
let nf_statically_writes = Maestro.Scrspec.nf_writes

(* The one producer-side hand-off of the RSS-steered disciplines: steer
   packets [lo, hi) one at a time ([dispatch i] is packet [i]'s core),
   record the decision in [assignment]/[per_core], stage the index in its
   core's buffer and submit the buffer the moment it holds [batch_size]
   packets — the workers start on the first full batch while the producer
   keeps dispatching, and producer memory is one buffer per core, not a
   copy of the trace.  Partial buffers are flushed at [hi] (end of run or
   epoch barrier).  Each core's k-th batch is therefore its k-th run of
   [batch_size] packets, exactly as if its whole queue had been chunked
   after the fact.  [remaining] is incremented before each hand-off and
   compensated on a drop (a dropped task never runs, so nothing else will
   decrement for it). *)
let stream t ~cores ~task ~remaining ~dispatch ~assignment ~per_core ~lo ~hi =
  let bs = t.batch_size in
  let bufs = Array.init cores (fun _ -> Array.make bs 0) in
  let fill = Array.make cores 0 in
  let hand_off core indices =
    Atomic.incr remaining;
    match submit t ~core (task core indices) with
    | `Pushed | `Inline -> ()
    | `Dropped -> Atomic.decr remaining
  in
  for i = lo to hi - 1 do
    let q = dispatch i in
    assignment.(i) <- q;
    per_core.(q) <- per_core.(q) + 1;
    let n = fill.(q) in
    bufs.(q).(n) <- i;
    if n + 1 < bs then fill.(q) <- n + 1
    else begin
      (* the full buffer now belongs to the task: stage into a fresh one *)
      let full = bufs.(q) in
      bufs.(q) <- Array.make bs 0;
      fill.(q) <- 0;
      hand_off q full
    end
  done;
  for core = 0 to cores - 1 do
    if fill.(core) > 0 then hand_off core (Array.sub bufs.(core) 0 fill.(core))
  done

(* The one producer-side hand-off of the SCR rung: cut packets [lo, hi)
   into [batch_size] batches; each goes whole to the next owner of the
   round-robin over the [live] cores ([rr] counts batches and is advanced
   here, so the rotation continues across epochs).  The
   producer encodes the batch's digest, hands it to [log] (the
   crash-rebuild log) and broadcasts the batch: the owner runs the full
   NF for the verdicts, every other live core gets a [replay] of the
   digest against its replica.  Every task bumps its core's [applied]
   count when done.  Submission is lossless ([Block]): a dropped digest
   batch would silently diverge a replica. *)
let spray t ~prog ~live ~rr ~log ~replay ~runners ~applied ~pkts ~verdicts ~remaining
    ~assignment ~per_core ~lo ~hi =
  let lives =
    Array.of_list
      (List.filteri (fun c _ -> live.(c)) (List.init (Array.length live) Fun.id))
  in
  let nlive = Array.length lives in
  let finished core =
    applied.(core) <- applied.(core) + 1;
    Atomic.decr remaining
  in
  let p = ref lo in
  while !p < hi do
    let blo = !p in
    let len = min t.batch_size (hi - blo) in
    let owner = lives.(!rr mod nlive) in
    incr rr;
    Array.fill assignment blo len owner;
    per_core.(owner) <- per_core.(owner) + len;
    let digest = Scr.encode_batch prog pkts ~lo:blo ~len in
    log digest len;
    let bytes = len * Scr.digest_wire_bytes prog in
    t.scr_digest_bytes <- t.scr_digest_bytes + bytes;
    Telemetry.Counter.add c_scr_digest_bytes bytes;
    Array.iter
      (fun core ->
        let task =
          if core = owner then
            {
              npkts = len;
              run =
                (fun () ->
                  let r = runners.(core) in
                  for i = blo to blo + len - 1 do
                    verdicts.(i) <- Dsl.Compile.run r pkts.(i)
                  done;
                  finished core);
            }
          else begin
            t.scr_replays <- t.scr_replays + 1;
            Telemetry.Counter.incr c_scr_replays;
            {
              npkts = len;
              run =
                (fun () ->
                  replay core digest len;
                  finished core);
            }
          end
        in
        Atomic.incr remaining;
        match submit ~bp:Block t ~core task with
        | `Pushed | `Inline -> ()
        | `Dropped -> Atomic.decr remaining (* unreachable under Block *))
      lives;
    p := blo + len
  done

(* Producer waits for the last batch; workers signal by decrementing.
   Every 256 spins it plays supervisor: joins/restarts dead workers
   (running their crashed batch and, on permanent failure, their whole
   ring inline) and checks heartbeats of workers with queued work. *)
let wait_quiesce t ~cores remaining =
  let iters = ref 0 in
  while Atomic.get remaining > 0 do
    incr iters;
    if !iters land 255 = 0 then begin
      Supervisor.tick t.supervisor;
      for core = 0 to cores - 1 do
        let w = t.workers.(core) in
        match ensure_live t w with
        | `Failed -> drain_inline t w
        | `Ok ->
            ignore
              (Supervisor.note_heartbeat t.supervisor ~core
                 ~heartbeat:(Atomic.get w.heartbeat) ~ring_len:(Ring.length w.ring))
      done
    end;
    Domain.cpu_relax ()
  done

(* What a run does at its epoch barriers.  A static run is one epoch and
   no barrier; [~rebalance] adds an RSS++ table move and [~adaptive] a
   hysteresis rung switch, both over the same loop and rung state. *)
type barrier = No_barrier | Rebalancing of Balancer.config | Adapting of Adaptive.t

let run ?(rebalance = Balancer.Off) ?(adaptive = Adaptive.Off) (t : t) (plan : Maestro.Plan.t)
    pkts =
  Telemetry.Span.with_span "pool/run" @@ fun () ->
  let cores = plan.Maestro.Plan.cores in
  if cores > t.cores then
    invalid_arg
      (Printf.sprintf "Pool.run: plan wants %d cores but the pool has %d" cores t.cores);
  let nf = plan.Maestro.Plan.nf in
  let nports = nf.Dsl.Ast.devices in
  (* a foreign port is rejected the same way in every mode, before any
     batch is handed off *)
  for i = 0 to Array.length pkts - 1 do
    let port = pkts.(i).Packet.Pkt.port in
    if port < 0 || port >= nports then
      invalid_arg
        (Printf.sprintf "Pool.run: packet %d arrives on port %d but %s has %d ports" i port
           nf.Dsl.Ast.name nports)
  done;
  let info = Dsl.Check.check_exn nf in
  (* stage once per run, bind once per core: every worker gets its own
     execution frame over the rung's instances *)
  let staged = Dsl.Compile.stage_runner nf info in
  let live = Array.init cores (fun c -> not (Atomic.get t.workers.(c).failed)) in
  if not (Array.exists Fun.id live) then
    invalid_arg "Pool.run: every core of the plan has failed permanently";
  (* failover: dead cores' RSS buckets migrate to live cores so no flow is
     steered at a queue nobody serves (RSS++-style remap, one per port) *)
  let rss = Dispatch.create ~live plan in
  if not (Array.for_all Fun.id live) then Telemetry.Counter.add c_remaps nports;
  let npkts = Array.length pkts in
  let verdicts = Array.make npkts Dsl.Interp.Dropped in
  let remaining = Atomic.make 0 in
  let strategy = plan.Maestro.Plan.strategy in
  let mplan = lazy (Balancer.migration_plan nf) in
  let scr_spec, barrier, epoch_pkts =
    match (adaptive, rebalance, strategy) with
    | Adaptive.On _, Balancer.On _, _ ->
        invalid_arg "Pool.run: --adaptive and --rebalance are mutually exclusive"
    | Adaptive.On acfg, Balancer.Off, _ -> (
        let scr_spec = Result.to_option (Maestro.Scrspec.admissible nf) in
        (* shared-nothing participates only when the migration is exact AND
           skips nothing: shard merges/splits rebuild state in fresh
           instances, so even a skipped sketch (harmless to RSS++ bucket
           moves, which leave it in place) would be silently reset here *)
        let m = Lazy.force mplan in
        let exact_migration = Balancer.exact m && Balancer.skipped_objects m = [] in
        match Adaptive.ladder ~strategy ~scr_ok:(scr_spec <> None) ~exact_migration with
        | Ok ladder -> (scr_spec, Adapting (Adaptive.create acfg ~ladder), acfg.Adaptive.epoch_pkts)
        | Error e -> invalid_arg ("Pool.run: " ^ e))
    | Adaptive.Off, _, Maestro.Plan.Scr -> (
        (* SCR sprays round-robin: there is no RSS table to rebalance *)
        match Maestro.Scrspec.admissible nf with
        | Ok spec -> (Some spec, No_barrier, max 1 npkts)
        | Error e ->
            invalid_arg
              (Printf.sprintf "Pool.run: SCR plan for %s but %s" nf.Dsl.Ast.name e))
    | Adaptive.Off, Balancer.On cfg, _ -> (None, Rebalancing cfg, cfg.Balancer.epoch_pkts)
    | Adaptive.Off, Balancer.Off, _ -> (None, No_barrier, max 1 npkts)
  in
  (* ONE table shared by all ports under a barrier policy, so a moved
     bucket moves each of its flows whole ({!Dispatch}) *)
  (match barrier with
  | No_barrier -> ()
  | Rebalancing _ | Adapting _ ->
      if not (Dispatch.share rss) then
        invalid_arg "Pool.run: rebalancing and adaptive switching require equal-size port tables");
  (* ---- rung state ------------------------------------------------------
     A static plan maps onto its ladder rung: shared-nothing and
     load-balance get per-core instances, lock/TM one shared instance under
     the {!Rwlock}, SCR full replicas.  [insts] always has [cores] slots —
     per-core instances, replicas, or one instance aliased into every slot
     (lock-based and serial).  Static runs size them by the plan; adaptive
     runs keep FULL capacity, so a conversion never loses entries to a
     smaller target. *)
  let rung =
    ref
      (match (barrier, strategy) with
      | Adapting ctl, _ -> Adaptive.rung ctl
      | _, (Maestro.Plan.Shared_nothing | Maestro.Plan.Load_balance) ->
          Maestro.Ladder.Shared_nothing
      | _, Maestro.Plan.Scr -> Maestro.Ladder.Scr
      | _, (Maestro.Plan.Lock_based | Maestro.Plan.Tm_based) -> Maestro.Ladder.Lock_based)
  in
  let divide =
    match barrier with
    | Adapting _ -> 1
    | No_barrier | Rebalancing _ -> Maestro.Plan.state_divisor plan
  in
  let fresh () = Dsl.Instance.create ~divide nf in
  let insts =
    ref
      (match !rung with
      | Maestro.Ladder.Shared_nothing | Maestro.Ladder.Scr ->
          (* independent [create]s are structurally identical, so SCR
             replicas start in lockstep *)
          Array.init cores (fun _ -> fresh ())
      | Maestro.Ladder.Lock_based | Maestro.Ladder.Serial -> Array.make cores (fresh ()))
  in
  let runners = Array.map (Dsl.Compile.bind_runner staged) !insts in
  let writes = nf_statically_writes nf in
  let lock = Rwlock.create ~cores in
  (* the one batch task of the RSS-steered rungs *)
  let batch_task ~locked core indices =
    let r = runners.(core) in
    let run =
      if locked then fun () ->
        Array.iter
          (fun i ->
            if writes then
              Rwlock.with_write lock (fun () -> verdicts.(i) <- Dsl.Compile.run r pkts.(i))
            else
              Rwlock.with_read lock ~core (fun () -> verdicts.(i) <- Dsl.Compile.run r pkts.(i)))
          indices;
        Atomic.decr remaining
      else fun () ->
        Array.iter (fun i -> verdicts.(i) <- Dsl.Compile.run r pkts.(i)) indices;
        Atomic.decr remaining
    in
    { npkts = Array.length indices; run }
  in
  (* SCR support: replayers, and the digest log since SCR entry (sized for
     every batch the run can spray) for crash rebuilds.  [applied] counts
     the logged batches each core fully applied; written by whoever runs
     the task, read by the producer only after joining a dead domain. *)
  let scr_prog = Option.map Scr.prepare scr_spec in
  let replayers : Scr.replayer option array = Array.make cores None in
  let bind_replayers () =
    match scr_prog with
    | Some prog when !rung = Maestro.Ladder.Scr ->
        Array.iteri (fun c inst -> replayers.(c) <- Some (Scr.bind prog inst)) !insts
    | _ -> Array.fill replayers 0 cores None
  in
  bind_replayers ();
  let log_cap =
    if scr_prog = None then 0
    else ((npkts + t.batch_size - 1) / t.batch_size) + ((npkts + epoch_pkts - 1) / epoch_pkts)
  in
  let log = Array.make log_cap [||] and log_npkts = Array.make log_cap 0 and log_len = ref 0 in
  let push_log digest len =
    log.(!log_len) <- digest;
    log_npkts.(!log_len) <- len;
    incr log_len
  in
  let applied = Array.make cores 0 in
  (* the seeded replica of an SCR entry by conversion; [None]: start-up state *)
  let snapshot = ref None in
  let first_live () =
    let rec go c = if c >= cores then 0 else if live.(c) then c else go (c + 1) in
    go 0
  in
  (* ---- migration --------------------------------------------------------- *)
  let account (o : Balancer.outcome) =
    t.migrated_flows <- t.migrated_flows + o.Balancer.moved_flows;
    t.migration_drops <- t.migration_drops + o.Balancer.dropped_flows;
    Telemetry.Counter.add c_moved_flows o.Balancer.moved_flows;
    Telemetry.Counter.add c_migration_drops o.Balancer.dropped_flows
  in
  (* hand [instances]' flow state to the cores the table gives its buckets *)
  let migrate_along instances =
    account
      (Balancer.migrate (Lazy.force mplan) ~hash:(Dispatch.hash rss) ~owner:(Dispatch.owner rss)
         ~instances)
  in
  (* per-core flow state — not load-balance's read-only replicas *)
  let sharded () = !rung = Maestro.Ladder.Shared_nothing && strategy <> Maestro.Plan.Load_balance in
  (* adopt [candidate]; sharded state follows its buckets when the
     migration is exact, and is otherwise stranded as in a plain remap *)
  let retable candidate =
    Dispatch.set_table rss candidate;
    if sharded () && Balancer.exact (Lazy.force mplan) then migrate_along !insts
  in
  (* ---- adaptive conversions ---------------------------------------------- *)
  (* collapse the current rung's state into ONE full instance *)
  let collapse () =
    match !rung with
    | Maestro.Ladder.Shared_nothing ->
        (* merge every shard into a fresh full instance: the migration
           executor already knows how to re-home a flow's entries, so
           point every bucket at slot 0 (the merged instance) and let
           the shards at slots 1..cores empty themselves into it *)
        let merged = fresh () in
        account
          (Balancer.migrate (Lazy.force mplan)
             ~hash:(fun _ -> 0)
             ~owner:(fun _ -> 0)
             ~instances:(Array.append [| merged |] !insts));
        merged
    | Maestro.Ladder.Scr ->
        (* collapse replicas to one: sound only if the live replicas
           agree — which the SCR contract guarantees at a quiesce
           point, and crash rebuilds restore before we get here *)
        let spec = Option.get scr_spec in
        let base = first_live () in
        for c = 0 to cores - 1 do
          if live.(c) && c <> base && not (Scr.replica_equal spec !insts.(base) !insts.(c)) then
            invalid_arg "Pool.run: SCR replicas diverged at a discipline switch"
        done;
        !insts.(base)
    | Maestro.Ladder.Lock_based | Maestro.Ladder.Serial -> !insts.(0)
  in
  let convert to_r =
    match to_r with
    | Maestro.Ladder.Shared_nothing ->
        (* split one full instance into per-core shards along the live
           indirection table; slot 0 reuses the merged instance (its
           surplus entries migrate out, anything undecodable — static
           init entries — is already in every fresh shard) *)
        let merged = collapse () in
        let shards = Array.init cores (fun c -> if c = 0 then merged else fresh ()) in
        migrate_along shards;
        insts := shards
    | Maestro.Ladder.Scr ->
        (* seed every replica from the collapsed state; exact copies
           ({!Dsl.Instance.copy}) keep the replicas in lockstep *)
        let base = collapse () in
        snapshot := Some (Dsl.Instance.copy base);
        insts := Array.init cores (fun c -> if c = 0 then base else Dsl.Instance.copy base)
    | Maestro.Ladder.Lock_based | Maestro.Ladder.Serial ->
        insts := Array.make cores (collapse ())
  in
  (* rebind the execution frames for rung [r] over the current [insts];
     runs at a quiesce point *)
  let enter r =
    rung := r;
    Array.iteri (fun c inst -> runners.(c) <- Dsl.Compile.bind_runner staged inst) !insts;
    bind_replayers ();
    log_len := 0;
    Array.fill applied 0 cores 0
  in
  (* join every dead domain; [true] when a core was newly written off *)
  let reap () =
    let newly_dead = ref false in
    for core = 0 to cores - 1 do
      match ensure_live t t.workers.(core) with
      | `Failed ->
          if live.(core) then begin
            live.(core) <- false;
            newly_dead := true
          end
      | `Ok -> ()
    done;
    !newly_dead
  in
  (* ---- dispatch ---------------------------------------------------------- *)
  (* a static run dispatches exactly what the NIC does in hardware; a
     barrier policy also counts, on the producer next to the dispatch it
     already performs — zero worker-side cost, and deterministic (CI gates
     compare the resulting counters).  Counted in EVERY rung: SCR's
     round-robin spray and the serial funnel hide skew from the actual
     dispatch, but the controller must see the imbalance the
     shared-nothing rung WOULD suffer. *)
  let counting = match barrier with No_barrier -> false | Rebalancing _ | Adapting _ -> true in
  (* ---- the epoch driver -------------------------------------------------- *)
  t.scr_crash_hook <-
    Option.map
      (fun prog core ->
        if !rung = Maestro.Ladder.Scr then begin
          t.scr_rebuilds <- t.scr_rebuilds + 1;
          Telemetry.Counter.incr c_scr_rebuilds;
          (* rebuild from the seeded snapshot (a conversion seeded the
             replicas mid-run) or start-up state, then rebind the full
             runner and the replayer: compiled runners capture the state
             containers eagerly, so a stale binding would replay into the
             orphaned pre-crash state *)
          (match !snapshot with
          | Some base -> !insts.(core) <- Dsl.Instance.copy base
          | None -> Dsl.Instance.reset !insts.(core) nf);
          runners.(core) <- Dsl.Compile.bind_runner staged !insts.(core);
          let rp = Scr.bind prog !insts.(core) in
          replayers.(core) <- Some rp;
          for b = 0 to applied.(core) - 1 do
            Scr.apply_batch rp log.(b) ~npkts:log_npkts.(b)
          done
        end)
      scr_prog;
  Fun.protect ~finally:(fun () -> t.scr_crash_hook <- None) @@ fun () ->
  let assignment = Array.make npkts 0 in
  let per_core = Array.make cores 0 in
  let points = ref [] in
  let rr = ref 0 in
  let pos = ref 0 in
  let drops0 = ref t.dropped_batches in
  let restarts0 = ref (Supervisor.restarts t.supervisor) in
  let digest0 = ref t.scr_digest_bytes in
  while !pos < npkts do
    let lo = !pos in
    let hi = min (lo + epoch_pkts) npkts in
    Dispatch.reset rss;
    (match !rung with
    | Maestro.Ladder.Scr ->
        if counting then
          for i = lo to hi - 1 do
            ignore (Dispatch.counted rss pkts.(i) : int)
          done;
        spray t ~prog:(Option.get scr_prog) ~live ~rr ~log:push_log
          ~replay:(fun core digest len ->
            match replayers.(core) with
            | Some rp -> Scr.apply_batch rp digest ~npkts:len
            | None -> ())
          ~runners ~applied ~pkts ~verdicts ~remaining ~assignment ~per_core ~lo ~hi
    | (Maestro.Ladder.Shared_nothing | Maestro.Ladder.Lock_based | Maestro.Ladder.Serial) as r ->
        let dispatch =
          match (barrier, r) with
          | No_barrier, _ -> fun i -> Dispatch.dispatch rss pkts.(i)
          | _, Maestro.Ladder.Serial ->
              (* the serial funnel: every packet to the first live core *)
              let core = first_live () in
              fun i ->
                ignore (Dispatch.counted rss pkts.(i) : int);
                core
          | _ -> fun i -> Dispatch.counted rss pkts.(i)
        in
        stream t ~cores
          ~task:(batch_task ~locked:(r = Maestro.Ladder.Lock_based))
          ~remaining ~dispatch ~assignment ~per_core ~lo ~hi);
    (* the epoch barrier IS the quiesce point: nothing is in flight when
       the table changes, state moves or the rung switches, so per-flow
       order is preserved by construction (FIFO per core within an epoch) *)
    wait_quiesce t ~cores remaining;
    pos := hi;
    match barrier with
    | No_barrier -> ()
    | Rebalancing cfg ->
        if hi < npkts then begin
          (* join any dead domain NOW, so a rebalance can never race a
             restart, and treat a fresh write-off as a forced rebalance *)
          let newly_dead = reap () in
          (* voluntary moves need no sharded state or an exact migration;
             a partially-migratable NF moves buckets only when a write-off
             forces it *)
          let proposal =
            if (not (sharded ())) || Balancer.exact (Lazy.force mplan) then
              Dispatch.propose rss ~threshold:cfg.Balancer.threshold
            else None
          in
          if newly_dead || proposal <> None then begin
            let table = Dispatch.table rss in
            let candidate = Option.value proposal ~default:table in
            let candidate =
              if Array.for_all Fun.id live then candidate else Nic.Reta.remap candidate ~live
            in
            let moves = List.length (Nic.Reta.diff table candidate) in
            if moves > 0 then
              Telemetry.Span.with_span "pool/rebalance" (fun () ->
                  retable candidate;
                  t.rebalances <- t.rebalances + 1;
                  Telemetry.Counter.incr c_rebalances;
                  if newly_dead then begin
                    t.forced_rebalances <- t.forced_rebalances + 1;
                    Telemetry.Counter.incr c_rebalances_forced
                  end;
                  t.migrated_buckets <- t.migrated_buckets + moves;
                  Telemetry.Counter.add c_moved_buckets moves;
                  points := hi :: !points)
          end
        end
    | Adapting ctl -> (
        (* join any dead domain NOW: crash recovery (inline replay, SCR
           replica rebuild) runs under the OLD rung before any switch is
           considered, so a mid-switch crash lands in the old rung's
           recovery path *)
        let newly_dead = reap () in
        if newly_dead then begin
          let table = Dispatch.table rss in
          let candidate = Nic.Reta.remap table ~live in
          if Nic.Reta.diff table candidate <> [] then begin
            retable candidate;
            Telemetry.Counter.incr c_remaps;
            (* a write-off remap moves flows between cores exactly like a
               switch does — record the boundary so the per-flow ordering
               invariant over [last_rebalance_points] stays checkable *)
            if hi < npkts then points := hi :: !points
          end
        end;
        let drops_now = t.dropped_batches in
        let restarts_now = Supervisor.restarts t.supervisor in
        let digest_now = t.scr_digest_bytes in
        let live_counts =
          Array.of_list (List.filteri (fun c _ -> live.(c)) (Array.to_list (Dispatch.counts rss)))
        in
        let obs =
          {
            Adaptive.imbalance = Dispatch.imbalance live_counts;
            drops = drops_now - !drops0;
            restarts = restarts_now - !restarts0;
            digest_bytes = digest_now - !digest0;
          }
        in
        drops0 := drops_now;
        restarts0 := restarts_now;
        digest0 := digest_now;
        match Adaptive.observe ctl obs with
        | Adaptive.Stay | Adaptive.Suppressed _ -> ()
        | Adaptive.Switch _ when hi >= npkts -> () (* run is over *)
        | Adaptive.Switch target ->
            if obs.Adaptive.restarts > 0 || newly_dead then
              (* the old rung's recovery path just ran; switching on state
                 it may still be settling risks a torn conversion — defer
                 the switch and retry at the next barrier *)
              Adaptive.defer ctl target
            else begin
              Telemetry.Span.with_span "pool/switch" (fun () ->
                  convert target;
                  enter target);
              Adaptive.commit ctl target;
              points := hi :: !points
            end)
  done;
  (match barrier with
  | Adapting ctl ->
      t.adaptive_switches <- t.adaptive_switches + Adaptive.switches ctl;
      t.adaptive_flaps <- t.adaptive_flaps + Adaptive.flap_suppressed ctl;
      t.adaptive_switch_epochs <- Adaptive.switch_epochs ctl;
      t.adaptive_residency <- Adaptive.residency ctl
  | No_barrier | Rebalancing _ -> ());
  t.runs <- t.runs + 1;
  t.total_pkts <- t.total_pkts + npkts;
  t.last_per_core <- per_core;
  t.last_assignment <- assignment;
  t.last_points <- List.rev !points;
  let total = Array.fold_left ( + ) 0 per_core in
  t.last_share <-
    (if total = 0 then Array.make cores 0.
     else Array.map (fun c -> float_of_int c /. float_of_int total) per_core);
  Telemetry.Counter.add c_pkts npkts;
  verdicts

(* --- the process-global pool ------------------------------------------------- *)

let global : t option ref = ref None
let global_mutex = Mutex.create ()

let shutdown_global () =
  Mutex.lock global_mutex;
  (match !global with
  | Some pool ->
      shutdown pool;
      global := None
  | None -> ());
  Mutex.unlock global_mutex

let () = at_exit shutdown_global

let with_global ?batch_size ?backpressure ~cores f =
  Mutex.lock global_mutex;
  let pool =
    match !global with
    | Some pool
      when pool.cores >= cores
           && (match batch_size with None -> true | Some b -> b = pool.batch_size)
           && (match backpressure with None -> true | Some bp -> bp = pool.backpressure)
           && failed_cores pool = [] ->
        pool
    | Some pool ->
        shutdown pool;
        let pool = create ?batch_size ?backpressure ~cores:(max cores pool.cores) () in
        global := Some pool;
        pool
    | None ->
        let pool = create ?batch_size ?backpressure ~cores () in
        global := Some pool;
        pool
  in
  Mutex.unlock global_mutex;
  f pool
