(** Offline study of dynamic RSS++-style indirection-table rebalancing
    (paper §4 implements the static version and notes "their dynamic
    versions could be used to handle changes in skew over time" — this is
    that extension, and {!Runtime.Balancer}/{!Runtime.Pool} run the same
    algorithm online).

    The trace is processed in epochs; at each epoch boundary the
    per-bucket loads observed during the finished epoch drive a greedy
    rebalance.  All ports share ONE indirection table: Maestro's symmetric
    per-port RSS keys give both directions of a flow the same hash, hence
    the same bucket on every port, so bucket loads are aggregated across
    ports and the rebalanced table applies to every port — exactly the
    invariant the live balancer relies on to keep each flow on one core.
    Because RSS++ moves whole buckets, colliding flows stay together and —
    on a shared-nothing plan — moving a bucket migrates its flows' state
    between cores, which is counted. *)

type report = {
  epochs : int;
  static_imbalance : float array;  (** per-epoch max/mean core load, fixed tables *)
  dynamic_imbalance : float array;  (** same, table rebalanced at epoch boundaries *)
  rebalances : int;  (** boundaries at which the table actually changed *)
  migrated_buckets : int;  (** indirection entries reassigned over the run *)
  migrated_flows : int;
      (** distinct flows resident in moved buckets, summed over rebalances —
          what a shared-nothing runtime must migrate ({!Runtime.Pool} reports
          the measured counterpart in its stats) *)
}

val study :
  ?threshold:float ->
  Maestro.Plan.t ->
  Packet.Pkt.t array ->
  epoch_pkts:int ->
  (report, string) result
(** [threshold] (default [0.0], i.e. rebalance at every boundary) suppresses
    rebalancing at boundaries where the epoch's max/mean imbalance does not
    exceed it — pass the live {!Balancer.config} threshold to reproduce the
    pool's decisions.  [Error] (never an exception) when [epoch_pkts < 1],
    the trace is shorter than one epoch, or the plan's port tables are not
    the same size. *)

val study_exn :
  ?threshold:float -> Maestro.Plan.t -> Packet.Pkt.t array -> epoch_pkts:int -> report
(** {!study}, raising [Invalid_argument] on [Error] — for callers that have
    already validated the trace. *)
