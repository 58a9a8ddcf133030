(** Software RSS: how a packet of a plan reaches a core — the one steering
    path of the pool ({!Pool}), the deterministic executor ({!Parallel}),
    the offline rebalancing study ({!Rebalance}) and the throughput model.

    A dispatcher holds one engine per port, built from
    {!Maestro.Plan.rss_engine}: the port's symmetric Toeplitz key (paper
    Fig. 3) and its indirection table.  By default each port steers through
    its own table, exactly as the NIC does in hardware.  RSS++-style
    rebalancing (§4) instead {!share}s ONE table across all ports: the
    symmetric keys give both directions of a flow the same hash, hence the
    same bucket index on every port, so a single table keeps each flow on
    one core whatever its arrival port ({!Balancer}).  {!counted} dispatch
    additionally fills the per-bucket loads and per-core counts the
    rebalancer and the adaptive controller read at their epoch barriers. *)

type t

val create : ?live:bool array -> Maestro.Plan.t -> t
(** One engine per port of the plan's NF.  When [live] marks some cores
    dead, every port's table is failover-remapped ({!Nic.Reta.remap}) so no
    bucket points at a queue nobody serves. *)

val dispatch : t -> Packet.Pkt.t -> int
(** The core the packet's port steers it to: the Toeplitz hash indexes the
    port's table, and unmatched packets go to core 0, as DPDK drivers do.
    Equal to {!Nic.Rss.dispatch} on the port's engine, and allocation-free
    on compiled engines. *)

val share : t -> bool
(** Steer every port through port 0's table from now on.  [false], and
    nothing changes, when the port tables differ in size. *)

val table : t -> Nic.Reta.t
(** Port 0's table — the shared one after {!share}. *)

val set_table : t -> Nic.Reta.t -> unit
(** Install a table on every port (a rebalance or remap of the shared
    table). *)

val counted : t -> Packet.Pkt.t -> int
(** {!dispatch}, also adding the packet to its bucket's load and its core's
    count. *)

val bucket : t -> Packet.Pkt.t -> int
(** The bucket index of the packet's hash in its port's table, or [-1]
    when no field set matches. *)

val counts : t -> int array
(** Per-core packets {!counted} since the last {!reset} (the live array). *)

val reset : t -> unit
(** Zero the bucket loads and the core counts. *)

val hash : t -> Packet.Pkt.t -> int
(** The raw Toeplitz hash, or [-1] when no field set matches — what state
    migration re-homes a flow by.  State-rebuilt pseudo-packets carry
    whatever port their key decodes to; one beyond the plan's ports hashes
    on port 0. *)

val owner : t -> int -> int
(** The core port 0's (the shared) table gives a raw {!hash}. *)

val imbalance : int array -> float
(** max/mean of per-core packet counts; 1.0 when perfectly balanced, and
    by convention when the total is zero. *)

val propose : t -> threshold:float -> Nic.Reta.t option
(** An RSS++ greedy rebalance of the shared table over the bucket loads
    {!counted} since the last {!reset} — [None] unless the counted
    imbalance exceeds [threshold]. *)
