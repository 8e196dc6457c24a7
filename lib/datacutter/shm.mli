(** Shared-memory channels: the process backend's data path.

    A {!conn} is one endpoint of a parent↔worker channel carrying
    {!Wire.msg} frames over a pair of fixed-capacity SPSC ring buffers
    in [mmap]'d shared memory ([Bigarray] over [Unix.map_file]), one
    per direction.  Slots carry whole encoded frames, written and read
    in place; each slot is stamped with a sequence number so the reader
    polls a single word — no futex, no syscall — and the writer
    flow-controls on a reader-published tail cursor.

    Each endpoint also owns one end of a Unix-domain socketpair, used
    for three things only: frames larger than a slot (the ring carries
    an in-order overflow marker and the frame itself travels the
    socket, so ordering is preserved and [max_frame]-sized messages
    still work), a [MSG_PEEK] liveness probe, and — through a second
    socketpair — the doorbell.

    A blocked side spins briefly on its polled word (multicore only —
    on one core the spin starves the peer), then parks futex-style: it
    sets a parked flag in the shared header and blocks on the doorbell,
    which the peer pokes after publishing a frame or freeing a slot —
    wakeups happen at fd speed with no timer slack.  A dead peer closes
    the doorbell and is double-checked with the liveness probe, so it
    surfaces as EOF ([recv] → [None]) or [EPIPE] ([send]).  Ring memory
    is an unlinked temp file: the kernel reclaims it with the last
    mapping, so a SIGKILLed process leaks nothing.

    Endpoint discipline: build the pair {e before} forking, then use
    each endpoint from exactly one process (the rings are single
    producer / single consumer). *)

type conn

val pair : ?slots:int -> ?slot_bytes:int -> unit -> conn * conn
(** A connected (parent, child) endpoint pair — call before forking.
    [slots] (power of two, default 64) and [slot_bytes] (frame payload
    capacity per slot, default 16 KiB) size each ring.  Raises
    ([Sys_error], [Unix.Unix_error], ...) when the ring memory cannot
    be mapped, e.g. because the temp directory is missing. *)

val plan_slot_bytes : frame_bytes:int -> int
(** Ring slot size for a run whose largest planned frame is
    [frame_bytes]: the next power of two that fits it (plus framing
    slack), clamped to [16 KiB, 2 MiB].  Feeding the batch planner's
    byte estimate here keeps large batches on the zero-copy ring path
    instead of overflowing to the socket. *)

val close : conn -> unit
(** Close the endpoint's sockets (the peer observes EOF / EPIPE).  Ring
    memory is reclaimed when the last process unmaps it.  Never
    raises. *)

val send : conn -> Wire.msg -> unit
(** Blocking send.  @raise Unix.Unix_error [EPIPE] if the peer is
    dead. *)

val recv : conn -> Wire.msg option
(** Blocking receive; [None] when the peer closed or died at a frame
    boundary.  @raise Wire.Protocol_error on a malformed frame. *)

(** Nonblocking variants, used by the streaming driver to drain ready
    responses between sends and by tests to hit ring boundary states
    without threads. *)

val try_send : conn -> Wire.msg -> bool
(** [false] iff the ring has no free slot right now. *)

val try_recv : conn -> [ `Msg of Wire.msg | `Empty | `Eof ]
(** [`Empty] iff no whole frame is currently available. *)

(** {2 Stats} *)

(** Counters an endpoint accumulates over its lifetime, for the
    run-level transport metrics section. *)
type stats = {
  overflow_frames : int;
      (** frames that travelled the socket because they did not fit a
          slot, both directions as seen from this endpoint *)
  occupancy_hw : int;  (** tx-ring occupancy high-water, in slots *)
  slots : int;
  slot_bytes : int;  (** per-slot frame capacity, after word round-up *)
  backstop_wakeups : int;
      (** parked waits that ended on the doorbell's receive timeout
          with the awaited frame or slot already there: a doorbell
          poke was missed and the timeout backstop caught it *)
}

val stats : conn -> stats
