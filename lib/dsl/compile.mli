(** Staged compilation of NF programs to packet-processing closures.

    {!stage} resolves, once per program, everything {!Interp.process}
    re-derives per packet: variable and record bindings become fixed
    slots in a preallocated frame, expression widths become baked-in
    mask constants, record layouts become field indices, and container
    keys are assembled as immediate ints driving the allocation-free
    [_packed] operations: map keys of up to {!State.Key.max_pair_bytes}
    bytes as a [(hi, lo)] pair for {!State.Map_s}, with a part that
    straddles byte 7 split at stage time, and sketch keys of up to
    {!State.Key.max_packed_bytes} bytes as one tagged int for
    {!State.Sketch}.  Wider keys keep the string path, serialized through
    a per-site scratch buffer.

    The compiled closure is observationally identical to the
    interpreter — same verdicts, same [on_op] event stream, same
    {!Interp.Runtime_error} conditions — which the differential suite
    in [test/test_compile.ml] checks against every shipped NF.  The
    interpreter remains the reference semantics; the compiled path is
    the per-core datapath the runtime uses by default (paper §7: the
    per-core packet loop is what sharding leaves on the critical
    path). *)

type t
(** A staged program: instance-independent, reusable across binds. *)

type bound
(** A staged program bound to one {!Instance} with its own execution
    frame.  A [bound] value is single-threaded — bind once per worker;
    binds over the same instance share state but not frames. *)

val stage : Ast.t -> Check.info -> t
(** One-time compilation, timed under the [compile.stage] telemetry
    span. *)

val bind : t -> Instance.t -> bound
(** Resolve container objects and preallocate the frame.  Raises
    [Invalid_argument] if the instance lacks an object the program
    uses or binds it to the wrong kind. *)

val process :
  ?on_op:(Interp.op_event -> unit) -> bound -> Packet.Pkt.t -> Interp.action
(** Run one packet.  Same contract as {!Interp.process}; on NFs whose
    keys all pack, the only per-packet allocation is the [Fwd] verdict
    (plus one string per wide-key operation otherwise). *)

(** {1 Row programs}

    The same staging over a second field source: a flat [int] row, one
    slot per header field plus optional in-port, frame-length and
    timestamp slots — the layout of an SCR update digest.  Each [Field],
    [In_port], [Pkt_len] and [Now] read (chain operations' timestamps
    included) compiles to one [row.(off + slot)] load, so running a row
    builds no packet.  A [Set_field] writes its slot in a per-bound
    scratch copy of the segment, masked the way
    [Pkt.field_int (Pkt.set_field p f v) f] reads it back (protocol
    fields to 8 bits); only programs with such a write stage the copy,
    and the caller's row is never written.  A row program is its own
    type: it cannot be run on a {!Packet.Pkt.t}. *)

type row_layout = {
  stride : int;  (** slots per row segment *)
  fields : Packet.Field.t array;
      (** slot [j] carries header field [fields.(j)]; the last slot of a
          repeated field is the one read *)
  port_slot : int;  (** in-port slot, or [-1] when absent *)
  len_slot : int;  (** frame-length slot, or [-1] *)
  ts_slot : int;  (** timestamp slot, or [-1] *)
}

type row_program
type row_bound

val stage_rows : Ast.t -> Check.info -> row_layout -> row_program
(** Stage a program over a row layout.  Raises [Invalid_argument] when
    a slot lies outside the stride, when the program reads a field (or
    the in-port, length or timestamp) the layout has no slot for, or
    when it can [Forward] (a row has no packet to emit).  A [Set_field]
    to a field with no slot is dropped: no staged read observes it. *)

val bind_rows : row_program -> Instance.t -> row_bound
(** As {!bind}; single-threaded, one per replica. *)

val run_row : row_bound -> int array -> int -> unit
(** [run_row b row off] runs the program on the segment
    [row.(off) .. row.(off + stride - 1)] for its state effects; the
    verdict is discarded and no op events are emitted.  Raises
    [Invalid_argument] when the segment does not fit in [row]; that
    single check covers every read.  Allocates only what the program's
    state operations do. *)

(** {1 Execution-path dispatch}

    Every execution site (pool workers, the deterministic runtime, the
    simulator, the CLI) selects interpreter vs compiled through a
    [runner], so one switch — [--compiled-nf] / [--interp] — controls
    them all. *)

val set_default : bool -> unit
(** Process-wide default for {!stage_runner} and {!make_runner} when
    [?compiled] is omitted.  Initially [true]. *)

val default_enabled : unit -> bool

type staged
(** A runner before instance binding: stage once, bind per worker. *)

type runner

val stage_runner : ?compiled:bool -> Ast.t -> Check.info -> staged

val bind_runner : staged -> Instance.t -> runner

val make_runner : ?compiled:bool -> Ast.t -> Check.info -> Instance.t -> runner

val run : ?on_op:(Interp.op_event -> unit) -> runner -> Packet.Pkt.t -> Interp.action

val is_compiled : runner -> bool
