(** Process backend: one OS process per source/inner filter copy,
    items serialized as {!Wire} frames over a per-worker channel of
    shared-memory ring pairs ({!Shm}).

    The parent process keeps the whole {!Engine} protocol — queues,
    routing, the EOS drain barrier, fault ticking, the retry/retire/
    re-route supervisor, metrics — with one driver domain per copy
    exactly like {!Par_runtime}; children only execute filter
    callbacks.  Sink copies run in the parent so their closures (result
    collectors) mutate caller-visible memory.  Every worker comes from
    a {!pool}.  A crash decision kills the copy's child with [SIGKILL],
    observes the real exit status with [waitpid], and restarts onto a
    replacement worker bound from the same pool; the retention ring is
    then replayed over the wire like the domain backend replays it in
    memory. *)

val available : bool
(** Whether this platform can run the backend ([Unix.fork]). *)

val run_result :
  ?queue_capacity:int ->
  ?faults:Fault.plan ->
  ?policy:Supervisor.policy ->
  ?batch:int ->
  ?stage_batch:int array ->
  ?mem_budget:int ->
  ?queue_budgets:int array ->
  ?metrics_interval_s:float ->
  ?autoscale:Engine.autoscale ->
  ?inflight:int ->
  ?frame_bytes:int ->
  Topology.t ->
  (Engine.metrics, Supervisor.run_error) result
(** Run to completion on an ephemeral {!pool} sized to the plan (the
    count {!pool_run_result} checks for), created for this run and shut
    down after it.  Must be called while the calling process is still
    single-domain (the facade's normal use): the pool forks.
    [Error (Unsupported _)] when {!available} is [false], the workers
    cannot be forked or their rings cannot be mapped.  The metrics
    carry the channels' counters under the ["transport"] key as an
    object [{inflight; slot_bytes; overflow_frames; ring_occupancy_hw;
    backstop_wakeups; credit_stall_s; stalls?}].

    [inflight] is the credit window: how many frames each driver keeps
    in flight to its worker before waiting for an acknowledgement
    (default 4, clamped to [1, 16]; the [CGPPC_INFLIGHT] env var
    overrides the default when the argument is omitted).  At 1 the
    window is one request/response round trip per frame.  Injected
    faults tick as each item's acknowledgement is settled, in order, so
    a fault plan means the same thing at every depth.  [frame_bytes]
    sizes the shared-memory
    ring slots from the expected largest frame (see
    {!Engine.plan_frame_bytes} and {!Shm.plan_slot_bytes}) so batched
    frames stay on the ring instead of overflowing to the control
    socket.  [autoscale] arms the
    elastic-copy controller
    ({!Engine.autoscale_loop}) on a monitor domain; every dormant
    elastic slot binds its worker up front and a mid-run spawn merely
    starts a driver domain over it.  [mem_budget]/[queue_budgets] bound the parent-side
    queues' memory exactly as in {!Par_runtime} — the queues (and so
    the spilling) live in the parent, so no wire change is involved.  Metrics match {!Par_runtime}'s shape ([queue_occupancy]
    populated, no [link_stats]); [elapsed_s] is wall time.
    [metrics_interval_s] runs an {!Engine.sampler_loop} monitor domain
    and fills [metrics.timeseries].  When tracing is enabled the
    workers ship their callback spans and counters back over the wire
    ({!Wire.Telemetry}): the trace covers worker pids and the metrics
    carry a per-copy ["workers"] rollup. *)

(** {1 Persistent worker pool}

    A pool keeps a set of pre-forked, role-less worker processes alive
    across runs.  {!pool_run_result} checks workers out and binds each
    one to a filter role by shipping the role closure over the wire
    ([Marshal] with closures — sound because the workers were forked
    from this very process), runs the plan, then unbinds the survivors
    back into the pool.  Many plans thus execute through one stable set
    of worker pids with zero mid-sequence forks — which also sidesteps
    the OCaml 5 fork-after-domain restriction: create the pool before
    any domain has ever been spawned and proc plans keep working for
    the life of the process.

    A crash decision SIGKILLs the bound worker (the pool shrinks by
    one) and binds a replacement from the pool's free workers. *)

type pool

val pool_create :
  ?workers:int ->
  ?frame_bytes:int ->
  unit ->
  (pool, Supervisor.run_error) result
(** Fork [workers] (default 8) parked worker processes.  Must be called
    while the process is still single-domain.  Each worker's channel
    is mapped once, at fork time: [frame_bytes] sizes its ring slots
    for the largest frame the pool's runs are expected to ship
    ({!Shm.plan_slot_bytes}).  [Error (Unsupported _)] when a worker
    cannot be forked or its rings cannot be mapped (there is no other
    data path); nothing is left running in that case. *)

val pool_size : pool -> int
(** Workers forked at creation. *)

val pool_free : pool -> int
(** Workers currently parked (not checked out, not crashed). *)

val pool_pids : pool -> int list
(** Pids of the currently parked workers, sorted — lets tests and
    diagnostics assert that runs reuse this set instead of forking. *)

val pool_run_result :
  pool ->
  ?queue_capacity:int ->
  ?faults:Fault.plan ->
  ?policy:Supervisor.policy ->
  ?batch:int ->
  ?stage_batch:int array ->
  ?mem_budget:int ->
  ?queue_budgets:int array ->
  ?metrics_interval_s:float ->
  ?autoscale:Engine.autoscale ->
  ?inflight:int ->
  Topology.t ->
  (Engine.metrics, Supervisor.run_error) result
(** Exactly {!run_result}, but on [pool]: callable after domains have
    been spawned (ring slot geometry is fixed at {!pool_create} time,
    so there is no [frame_bytes] here).  Fails with [Unsupported] when
    the pool has fewer free workers than the plan needs (sources need 1
    each, non-sink inner copies [1 + max_retries] each — one plus a
    replacement per restart — dormant elastic slots included) or has
    been shut down. *)

val pool_shutdown : pool -> unit
(** Orderly shutdown of every parked worker (EOF, grace period,
    SIGKILL).  Checked-out workers are shut down when their run
    releases them.  Idempotent. *)
