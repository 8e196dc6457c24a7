type backend = Engine.backend = Sim | Par | Proc

let backend_name = Engine.backend_name

type transport = Shm.transport = Shm | Socket

let transport_name = Shm.transport_name
let transport_of_name = Shm.transport_of_name

type pool = Proc_runtime.pool

let pool_create = Proc_runtime.pool_create
let pool_size = Proc_runtime.pool_size
let pool_free = Proc_runtime.pool_free
let pool_transport = Proc_runtime.pool_transport
let pool_pids = Proc_runtime.pool_pids
let pool_shutdown = Proc_runtime.pool_shutdown

(* The metrics outlive the run, but the par and proc drivers allocate
   parts of them on the run's own domains.  A retained block pins the
   major-heap pool of the domain that allocated it, and every run spawns
   new domains, so a caller keeping one record per run (a benchmark, a
   sweep) would grow by whole pools per run.  Copy the record onto the
   calling domain. *)
let rehome (m : Engine.metrics) : Engine.metrics =
  Marshal.from_bytes (Marshal.to_bytes m []) 0

let run_result ?(backend = Sim) ?queue_capacity ?faults ?policy ?batch
    ?stage_batch ?mem_budget ?queue_budgets ?metrics_interval_s ?autoscale
    ?transport ?inflight ?frame_bytes ?pool topo =
  Result.map rehome
  @@
  match backend with
  | Sim -> (
      (* The simulator has no bounded queues, but a nonsensical capacity
         should not silently pass on one backend and fail on the other. *)
      match queue_capacity with
      | Some c when c <= 0 -> Error (Supervisor.Invalid_topology "queue capacity must be positive")
      | _ ->
          Sim_runtime.run_result ?faults ?policy ?batch ?stage_batch
            ?mem_budget ?queue_budgets ?metrics_interval_s ?autoscale topo)
  | Par ->
      Par_runtime.run_result ?queue_capacity ?faults ?policy ?batch
        ?stage_batch ?mem_budget ?queue_budgets ?metrics_interval_s ?autoscale
        topo
  | Proc -> (
      match pool with
      | Some p ->
          Proc_runtime.pool_run_result p ?queue_capacity ?faults ?policy
            ?batch ?stage_batch ?mem_budget ?queue_budgets ?metrics_interval_s
            ?autoscale ?inflight topo
      | None ->
          Proc_runtime.run_result ?queue_capacity ?faults ?policy ?batch
            ?stage_batch ?mem_budget ?queue_budgets ?metrics_interval_s
            ?autoscale ?transport ?inflight ?frame_bytes topo)

let total_bytes = Engine.total_bytes
let pp_metrics = Engine.pp_metrics
let metrics_to_json = Engine.metrics_to_json
