(** Concrete interpretation of NF programs — the sequential NF itself, and
    the per-core worker of every parallel implementation Maestro generates.

    Besides the packet verdict, the interpreter can report each stateful
    operation as it executes ([on_op]); the parallel runtimes use this to
    drive lock/transaction choreography and the performance model uses it to
    count memory touches. *)

type action =
  | Fwd of int * Packet.Pkt.t  (** output device, possibly rewritten packet *)
  | Dropped

type op_kind =
  | Op_map_get
  | Op_map_put
  | Op_map_erase
  | Op_vec_get
  | Op_vec_set
  | Op_chain_alloc
  | Op_chain_rejuv
  | Op_chain_expire
  | Op_sketch_touch
  | Op_sketch_query

type op_event = { obj : string; kind : op_kind; write : bool; expired : int }
(** [expired]: flows cleaned by a [Chain_expire] (0 elsewhere). *)

val op_is_write : op_kind -> bool
(** Whether the operation mutates state.  [Chain_expire] only counts as a
    write when it actually expired something — the basis for the paper's
    read-packet / write-packet distinction (§3.6). *)

val lock_write : op_event -> bool
(** The lock discipline's write classification.  Rejuvenation is not a
    write: the per-core aging replicas absorb it (§4).  Expiry writes
    only when it actually expired a flow.  Every other operation is a
    write exactly when it mutates state. *)

val process :
  ?on_op:(op_event -> unit) -> Ast.t -> Check.info -> Instance.t -> Packet.Pkt.t -> action
(** Run one packet through the NF against the given state instance.  The
    packet's [port] is the input device and its [ts_ns] the current time. *)

exception Runtime_error of string
(** Raised on conditions {!Check.check} already rejects; reaching it means a
    malformed NF bypassed validation. *)

val set_pkt_field : Packet.Pkt.t -> Packet.Field.t -> int -> Packet.Pkt.t
(** Functional header-field update — shared with {!Compile} so both
    execution paths rewrite packets identically. *)
