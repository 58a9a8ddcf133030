(** Fixed-capacity pair-keyed int map with open addressing.

    Backs the packed-key fast path of {!Map_s}: keys are the [(hi, lo)]
    pair form of container keys of at most {!Key.max_pair_bytes} bytes
    (see {!Key.pair_hi}), values are non-negative DSL integers, and every
    operation is allocation-free.  Storage is one interleaved [int array]
    holding [hi; lo; value] per slot, with negative values marking empty
    and tombstone slots, so a probe touches one cache line.  The logical
    capacity is enforced the way the Vigor containers do it — {!put} of
    an absent key on a full map returns [false] — while the physical table
    grows on demand to keep probe sequences short. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val capacity : t -> int
val length : t -> int
val mem : t -> int -> int -> bool

val find : t -> int -> int -> absent:int -> int
(** [find t hi lo ~absent] is the value bound to [(hi, lo)], or [absent]
    when it is unbound.  The caller picks a sentinel that cannot be a
    stored value (any negative int). *)

val put : t -> int -> int -> int -> bool
(** [put t hi lo v] inserts or replaces; [false] iff the map is logically
    full and the key is absent.  Raises [Invalid_argument] if [v < 0]. *)

val erase : t -> int -> int -> bool
(** [false] iff the key was absent. *)

val copy : t -> t
(** Field-exact duplicate: same physical table size, probe layout and
    tombstones, so a copy that sees the same operation sequence as the
    original stays structurally identical to it. *)

val iter : t -> (int -> int -> int -> unit) -> unit
(** [iter t f] calls [f hi lo v] on every binding. *)

val clear : t -> unit

(** {1 Introspection} — read-only physical-layout stats, used by the
    capacity-boundary tests and the 1M-flow stress harness to gate probe
    lengths and to prove tombstone churn keeps the table bounded. *)

val table_slots : t -> int
(** Current physical table size (a power of two). *)

val tombstones : t -> int

val probe_stats : t -> int * int
(** [(max_probe, mean_probe_x100)] over the occupied entries: the extra
    slots a [find] of that key walks past its home slot.  O(table) scan —
    diagnostics only, not for the datapath. *)
