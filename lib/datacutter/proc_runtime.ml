(* Process backend of the filter-stream engine (see the .mli).

   Same scheduling skeleton as [Par_runtime] — one driver domain per
   copy over [Bqueue]s, protocol decisions from [Engine] — but the
   filter callbacks of source and inner copies execute in worker
   processes, one per copy, each connected by a [Shm] channel speaking
   the [Wire] frame protocol.  Every buffer crossing a copy boundary is
   genuinely serialized, so the compiler's packing layer is exercised
   end-to-end, and an injected [crash@N] kills a real OS process which
   the supervisor observes with [waitpid] and replaces.

   Division of labour:
   - the parent keeps the whole protocol brain: queues, routing, the
     EOS drain barrier, fault ticking (parent-side, so injection state
     survives child replacement), the retry/retire/re-route machine,
     accounting and the watchdog;
   - a child is a dumb callback executor: read a request frame,
     run [init]/[process]/[on_eos]/[finalize]/[next], write the result
     back (or [Crashed] if the callback raised), repeat until [Unbind]
     or EOF;
   - sink copies run their filter in the parent: their closures carry
     the caller's result collectors (e.g. [Filter.collecting_sink]),
     which must mutate parent memory — the paper's "view node" sat on
     the host for the same reason.

   One driver: every remote copy talks to its worker through a credit
   [window] of pipelined frames settled in FIFO order; the fault tick
   fires as each item's acknowledgement is settled.  One worker
   lifecycle: workers come only from a [pool] — forked by
   [pool_create] before any domain exists (OCaml 5 forbids forking a
   multi-domain runtime), bound to a role per run, unbound after it.  A
   restart binds a replacement from the same pool, so the run never
   forks; a one-shot [run_result] runs on an ephemeral pool sized to
   the plan.  Sources are never restarted (their cursor cannot be
   rebuilt without duplicating packets). *)

type msg = It of Engine.item | Release

(* Spill codec for parent-side queue messages (the proc backend's
   queues live in the parent, so spilling needs no wire changes). *)
let encode_msg = function
  | Release -> "R"
  | It it -> "I" ^ Engine.encode_item it

let decode_msg s =
  if String.length s = 0 then invalid_arg "Proc_runtime.decode_msg: empty"
  else
    match s.[0] with
    | 'R' -> Release
    | 'I' -> It (Engine.decode_item (String.sub s 1 (String.length s - 1)))
    | c -> invalid_arg (Printf.sprintf "Proc_runtime.decode_msg: tag %C" c)

let msg_cost = function It it -> Engine.item_cost it | Release -> 8

let available = not Sys.win32

(* The remote peer failed: the callback raised in the child, the child
   died (EOF/EPIPE), or it sent garbage.  Handled by the supervisor
   exactly like a local filter exception. *)
exception Remote_crash of string

type worker = { pid : int; conn : Shm.conn }

(* What a pool [Wire.Bind] frame carries: the stage's role closure and
   the copy coordinates, marshalled with [Marshal.Closures].  Legal
   because pool workers are forked from the process that later binds
   them, so code pointers agree on both sides; only the environment of
   the closure travels. *)
type ship_role =
  | Ship_source of (int -> Filter.source)
  | Ship_filter of (int -> Filter.t)

type bind_info = {
  bi_role : ship_role;
  bi_index : int;  (* copy index the role closure is applied to *)
  bi_tid : int;  (* trace thread id of the copy *)
  bi_telem : bool;  (* ship telemetry frames this session *)
}

(* --- the child ------------------------------------------------------- *)

(* One stream item through a filter: its emission, if any. *)
let step (f : Filter.t) = function
  | Engine.Data b ->
      Option.map (fun o -> Engine.Data o) (fst (f.Filter.process b))
  | Engine.Final b ->
      Option.map (fun o -> Engine.Final o) (fst (f.Filter.on_eos (Some b)))
  | Engine.Marker -> None

(* One bound session inside a child: execute callback requests until
   the parent sends [Unbind] (return, to park for the next plan) or the
   channel closes (exit).  Per-session state (the instance, telemetry
   counters) lives here so a worker starts every plan fresh. *)
let serve_session conn (bi : bind_info) =
  let telem = bi.bi_telem and tid = bi.bi_tid in
  let instantiate () =
    match bi.bi_role with
    | Ship_source mk -> Engine.I_source (mk bi.bi_index)
    | Ship_filter mk -> Engine.I_filter (mk bi.bi_index)
  in
  let inst = ref `None in
  (* With pipelined [Next] requests the parent may have several queued
     when the source runs dry; once [next] returned [None] the
     leftovers answer [Done] without touching the source again. *)
  let src_done = ref false in
  (* Local telemetry: spans + cumulative counters recorded around each
     callback, shipped as [Wire.Telemetry] frames at flush points and
     immediately before Finalize/Src_finalize/Crashed responses (a
     crash response is the last frame before the parent SIGKILLs this
     worker, so the failing call's span still ships).  [Obs.Clock]'s t0
     is inherited at fork, so timestamps share the parent's axis.  The
     shared Trace DLS buffer is deliberately NOT used: it was inherited
     from the parent and appending there would duplicate parent events
     on ship. *)
  let my_pid = Unix.getpid () in
  let pending = ref [] in
  let n_pending = ref 0 in
  let busy = ref 0.0 in
  let calls = ref 0 in
  let flush_every = 32 in
  let flush_telemetry ?(best_effort = false) ~force () =
    if telem && !n_pending > 0 && (force || !n_pending >= flush_every) then begin
      let t =
        {
          Wire.w_pid = my_pid;
          w_spans = List.rev !pending;
          w_counters =
            [ ("busy_s", !busy); ("calls", float_of_int !calls) ];
        }
      in
      pending := [];
      n_pending := 0;
      try Shm.send conn (Wire.Telemetry t)
      with _ -> if not best_effort then Unix._exit 1
    end
  in
  let record name f =
    if not telem then f ()
    else begin
      let t0 = Obs.Clock.elapsed_s () in
      let fin () =
        let dur = Obs.Clock.elapsed_s () -. t0 in
        busy := !busy +. dur;
        incr calls;
        pending :=
          {
            Wire.s_name = name;
            s_cat = "proc-worker";
            s_ts = t0;
            s_dur = dur;
            s_tid = tid;
          }
          :: !pending;
        incr n_pending
      in
      match f () with
      | r ->
          fin ();
          r
      | exception e ->
          fin ();
          raise e
    end
  in
  let handle req =
    match req with
    | Wire.Init -> (
        match instantiate () with
        | Engine.I_filter f ->
            inst := `Filter f;
            ignore (f.Filter.init ());
            Wire.Done
        | Engine.I_source s ->
            inst := `Source s;
            src_done := false;
            Wire.Done)
    | Wire.Item it -> (
        match !inst with
        | `Filter f -> Wire.Out (step f it)
        | _ -> Wire.Crashed "worker has no filter instance")
    | Wire.Batch items -> (
        match !inst with
        | `Filter f -> (
            (* One emission slot per processed input.  If the callback
               raises partway, reply with the successful prefix and the
               error — the parent accounts exactly those items before
               running its crash protocol. *)
            let outs = ref [] in
            try
              List.iter (fun it -> outs := step f it :: !outs) items;
              Wire.Outs (List.rev !outs, None)
            with e -> Wire.Outs (List.rev !outs, Some (Printexc.to_string e)))
        | _ -> Wire.Crashed "worker has no filter instance")
    | Wire.Finalize -> (
        match !inst with
        | `Filter f ->
            let out, _ = f.Filter.finalize () in
            Wire.Out (Option.map (fun b -> Engine.Final b) out)
        | _ -> Wire.Crashed "worker has no filter instance")
    | Wire.Next -> (
        match !inst with
        | `Source s -> (
            if !src_done then Wire.Done
            else
              match s.Filter.next () with
              | Some (b, _) -> Wire.Out (Some (Engine.Data b))
              | None ->
                  src_done := true;
                  Wire.Done)
        | _ -> Wire.Crashed "worker has no source instance")
    | Wire.Src_finalize -> (
        match !inst with
        | `Source s ->
            let out, _ = s.Filter.src_finalize () in
            Wire.Out (Option.map (fun b -> Engine.Final b) out)
        | _ -> Wire.Crashed "worker has no source instance")
    | Wire.Bind _ | Wire.Unbind | Wire.Exit | Wire.Out _ | Wire.Outs _
    | Wire.Done | Wire.Crashed _ | Wire.Telemetry _ ->
        Wire.Crashed "unexpected frame in worker"
  in
  (* Wrap real callback requests in a recorded span; markers and
     protocol frames are not callbacks. *)
  let span_name = function
    | Wire.Init -> Some "init"
    | Wire.Item (Engine.Data _) -> Some "process"
    | Wire.Item (Engine.Final _) -> Some "on_eos"
    | Wire.Batch _ -> Some "process_batch"
    | Wire.Finalize -> Some "finalize"
    | Wire.Next -> Some "produce"
    | Wire.Src_finalize -> Some "src_finalize"
    | _ -> None
  in
  let rec loop () =
    match (try Shm.recv conn with _ -> None) with
    | None | Some Wire.Exit ->
        (* The parent usually closed its end already; shipping the tail
           is best-effort. *)
        flush_telemetry ~best_effort:true ~force:true ();
        Unix._exit 0
    | Some Wire.Unbind ->
        (* Pool release: flush the session's telemetry tail so the
           parent's per-copy rollup is complete, acknowledge, park. *)
        flush_telemetry ~force:true ();
        (try Shm.send conn Wire.Done with _ -> Unix._exit 1)
    | Some req ->
        let resp =
          try
            match span_name req with
            | Some name -> record name (fun () -> handle req)
            | None -> handle req
          with e -> Wire.Crashed (Printexc.to_string e)
        in
        let force =
          match (req, resp) with
          | (Wire.Finalize | Wire.Src_finalize), _ -> true
          | _, Wire.Crashed _ -> true
          | _ -> false
        in
        flush_telemetry ~force ();
        (try Shm.send conn resp with _ -> Unix._exit 1);
        loop ()
  in
  loop ()

(* Child main loop of a worker: forked role-less, parks until a [Bind]
   frame ships it a role closure, serves that plan's session, and parks
   again on [Unbind] — the same OS process executes any number of
   plans without re-forking.  [Unix._exit] (not [exit]) so the child
   cannot re-run the parent's [at_exit] hooks or flush inherited
   channel buffers. *)
let worker_loop conn =
  let rec park () =
    match (try Shm.recv conn with _ -> None) with
    | None | Some Wire.Exit -> Unix._exit 0
    | Some (Wire.Bind blob) ->
        (try Shm.send conn Wire.Done with _ -> Unix._exit 1);
        serve_session conn (Marshal.from_bytes blob 0 : bind_info);
        park ()
    | Some _ -> Unix._exit 1
  in
  park ()

(* --- parent-side worker management ----------------------------------- *)

let string_of_status = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

(* Reap a dead-or-dying worker and observe its real exit status. *)
let reap_worker ?(kill = false) label (w : worker) =
  if kill then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (match Unix.waitpid [] w.pid with
  | _, status ->
      Logs.debug (fun m ->
          m "proc worker %s pid %d: %s" label w.pid (string_of_status status))
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  Shm.close w.conn

(* Orderly shutdown for workers still alive at the end of the run:
   close the request channel (the child reads EOF and [_exit]s), give
   it a grace period, then SIGKILL. *)
let shutdown_worker label (w : worker) =
  Shm.close w.conn;
  let deadline = Obs.Clock.elapsed_s () +. 1.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] w.pid with
    | 0, _ ->
        if Obs.Clock.elapsed_s () > deadline then begin
          Logs.warn (fun m ->
              m "proc worker %s pid %d unresponsive; killing" label w.pid);
          (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] w.pid)
        end
        else begin
          Unix.sleepf 0.002;
          reap ()
        end
    | _, status ->
        Logs.debug (fun m ->
            m "proc worker %s pid %d: %s" label w.pid (string_of_status status))
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

(* --- the credit window ------------------------------------------------ *)

let default_inflight = 4

(* Hard cap on the per-worker window.  16 is a quarter of the default
   ring (the window can never fill the ring, so a pipelined [send]
   never blocks on a full ring while responses back up — the classic
   bidirectional-pipe deadlock) and past it the round trip is already
   fully hidden on any host this targets. *)
let max_inflight = 16

(* In-flight request bytes a window may hold.  A frame that does not
   fit its ring slot overflows to the socketpair, and those overflow
   writes are the only socket writes: keeping the window's bytes well
   under the kernel's default socketpair send buffer means several
   overflow frames in flight still complete without blocking, so the
   parent can always progress to collecting responses. *)
let inflight_byte_budget = 64 * 1024

(* A frame estimated bigger than this travels alone (see [frame]).
   One oversized frame may overflow its ring slot and exceed what the
   socketpair buffers absorb without write-side blocking, which is
   only safe when no responses are queued behind it. *)
let big_frame_bytes = 32 * 1024

let resolve_inflight inflight =
  let v =
    match inflight with
    | Some n -> n
    | None -> (
        match Sys.getenv_opt "CGPPC_INFLIGHT" with
        | Some s -> (
            match int_of_string_opt (String.trim s) with
            | Some n -> n
            | None -> default_inflight)
        | None -> default_inflight)
  in
  max 1 (min max_inflight v)

(* What a window frame asks of the worker: a control request ([Init],
   [Next], [Finalize], [Src_finalize]), a run of stream items whose
   outputs are accounted and forwarded, or one retained item replayed
   into a restarted worker with its output suppressed. *)
type kind = Control of Wire.msg | Items | Replay

(* One frame of a copy's credit window.  [items] is trimmed from the
   front as partial batch acks arrive — whatever remains is exactly
   the unacknowledged suffix a crash must resubmit or re-route.  [est]
   is the byte estimate for the in-flight budget, [sent] the send time
   that starts the frame's FIFO service interval.  A frame that travels
   [alone] — a barrier-edge request or an oversized frame — is sent
   only into an empty window, and nothing follows it until it is
   settled. *)
type frame = {
  kind : kind;
  mutable items : Engine.item list;
  est : int;
  alone : bool;
  mutable sent : float;
}

(* The window's frame queues: a growable circular buffer.  A popped
   slot is overwritten with [filler], so a settled frame is garbage at
   once.  A [Queue]'s dead cells stay linked to their successors: once
   one is promoted, every frame pushed after it is promoted too, which
   cost two to three times the parent's promoted words per streambench
   job. *)
module Fifo = struct
  type 'a t = {
    mutable buf : 'a array;  (* power-of-two length *)
    mutable head : int;
    mutable len : int;
    filler : 'a;
  }

  let create filler = { buf = Array.make 8 filler; head = 0; len = 0; filler }
  let length q = q.len
  let is_empty q = q.len = 0
  let slot q i = (q.head + i) land (Array.length q.buf - 1)
  let peek q = q.buf.(q.head)
  let to_list q = List.init q.len (fun i -> q.buf.(slot q i))

  let push x q =
    if q.len = Array.length q.buf then begin
      q.buf <-
        Array.init (2 * q.len) (fun i ->
            if i < q.len then q.buf.(slot q i) else q.filler);
      q.head <- 0
    end;
    q.buf.(slot q q.len) <- x;
    q.len <- q.len + 1

  let pop q =
    let x = peek q in
    q.buf.(q.head) <- q.filler;
    q.head <- slot q 1;
    q.len <- q.len - 1;
    x
end

(* The credit window of one remote copy: the single scheduling state
   machine of every source and inner worker.  Frames wait in [pending]
   until a credit frees, ride in [flight] until acknowledged, and are
   settled strictly in FIFO order.  The window moves frames and
   responses but never looks inside them: [settle] (the role's
   accounting of one response against the head frame) and [on_error]
   (the role's crash protocol — it either raises to give up or leaves
   the window ready to continue) belong to the copy's role.  Depth 1
   is one round trip per frame. *)
type window = {
  label : string;
  depth : int;
  mutable worker : worker option;
  pending : frame Fifo.t;
  flight : frame Fifo.t;
  mutable flight_bytes : int;
  mutable held : Wire.msg option;  (* a response to settle again *)
  mutable last_ack : float;
  mutable stall_s : float;  (* blocked with every credit spent *)
  absorb : Wire.telemetry -> unit;
  charge : string -> (unit -> Wire.msg option) -> Wire.msg option;
  mutable settle : frame -> Wire.msg -> unit;
  mutable on_error : exn -> unit;
}

let mk_frame ?(alone = false) kind items =
  let est = List.fold_left (fun a it -> a + Engine.item_cost it) 32 items in
  { kind; items; est; alone = alone || est > big_frame_bytes; sent = 0.0 }

let barrier m = mk_frame ~alone:true (Control m) []

let msg_of fr =
  match (fr.kind, fr.items) with
  | Control m, _ -> m
  | (Items | Replay), [ it ] -> Wire.Item it
  | (Items | Replay), items -> Wire.Batch items

let span_of fr =
  match fr.kind with
  | Control Wire.Init -> "init"
  | Control Wire.Next -> "produce"
  | Control Wire.Src_finalize -> "src_finalize"
  | Control _ -> "finalize"
  | Replay -> "replay"
  | Items -> (
      match fr.items with Engine.Final _ :: _ -> "on_eos" | _ -> "process")

let kill win =
  match win.worker with
  | None -> ()
  | Some w ->
      win.worker <- None;
      reap_worker ~kill:true win.label w

(* The worker failed at the transport level (EOF, EPIPE, garbage): it
   is reaped and the failure surfaces as [Remote_crash]. *)
let lose win msg =
  kill win;
  raise (Remote_crash msg)

let conn_of win =
  match win.worker with
  | Some w -> w.conn
  | None -> raise (Remote_crash "worker is dead")

(* The one response reader of the driver: the next frame from the
   worker, shipped telemetry absorbed on the way; [None] only when
   [block] is false and nothing is ready. *)
let recv_resp win ~block =
  let c = conn_of win in
  let rec go () =
    match
      if block then
        match Shm.recv c with Some m -> `Msg m | None -> `Eof
      else Shm.try_recv c
    with
    | `Msg (Wire.Telemetry t) ->
        win.absorb t;
        go ()
    | `Msg m -> Some m
    | `Empty -> None
    | `Eof -> lose win "worker exited unexpectedly"
  in
  try go () with
  | Unix.Unix_error (e, _, _) ->
      lose win ("worker i/o error: " ^ Unix.error_message e)
  | Wire.Protocol_error m -> lose win ("worker protocol error: " ^ m)

let pop_head win =
  let fr = Fifo.pop win.flight in
  win.flight_bytes <- win.flight_bytes - fr.est

(* Seconds the worker spent on the head frame, as the parent sees it:
   ack time minus the later of its send time and the previous ack. *)
let service win fr =
  let t = Obs.Clock.elapsed_s () in
  let d = t -. Float.max fr.sent win.last_ack in
  win.last_ack <- t;
  d

(* Send credit: an empty window takes any frame; otherwise a frame
   needs a free credit, byte headroom, and neither it nor the flight
   head may travel alone. *)
let can_send win fr =
  Fifo.is_empty win.flight
  || (not (fr.alone || (Fifo.peek win.flight).alone))
     && Fifo.length win.flight < win.depth
     && win.flight_bytes <= inflight_byte_budget

(* Send pending frames while credit allows.  A frame joins [flight]
   before its write, so a failed send leaves it unacknowledged and
   recovery re-sends it.  On return, [pending] is empty or [flight] is
   not. *)
let rec pump win =
  if (not (Fifo.is_empty win.pending)) && can_send win (Fifo.peek win.pending)
  then begin
    let fr = Fifo.pop win.pending in
    fr.sent <- Obs.Clock.elapsed_s ();
    Fifo.push fr win.flight;
    win.flight_bytes <- win.flight_bytes + fr.est;
    (match Shm.send (conn_of win) (msg_of fr) with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) ->
        kill win;
        win.on_error (Remote_crash ("worker i/o error: " ^ Unix.error_message e))
    | exception (Remote_crash _ as err) -> win.on_error err);
    pump win
  end

(* Settle the flight head against its response — a held one first,
   else the next from the worker (when [block], waiting for it as the
   head's callback).  False when nothing was settled. *)
let settle_next win ~block =
  (not (Fifo.is_empty win.flight))
  &&
  let fr = Fifo.peek win.flight in
  match
    let resp =
      match win.held with
      | Some _ as held ->
          win.held <- None;
          held
      | None ->
          if block then win.charge (span_of fr) (fun () -> recv_resp win ~block)
          else recv_resp win ~block
    in
    match resp with
    | Some m ->
        win.settle fr m;
        true
    | None -> false
  with
  | settled -> settled
  | exception ((Bqueue.Aborted | Bqueue.Closed) as e) -> raise e
  | exception err ->
      win.on_error err;
      true

(* A blocking settle forced by exhausted credit: the transport's
   credit-stall time. *)
let settle_stalled win =
  let t0 = Obs.Clock.elapsed_s () in
  ignore (settle_next win ~block:true);
  win.stall_s <- win.stall_s +. (Obs.Clock.elapsed_s () -. t0)

(* Send everything pending and settle everything in flight. *)
let rec drain win =
  pump win;
  if settle_next win ~block:true then drain win

(* Accept one frame — queued first, so a give-up while the window
   settles still finds it among the unacknowledged — then settle
   whatever is already answered and send as credit allows, waiting
   while none is free. *)
let submit win fr =
  Fifo.push fr win.pending;
  while settle_next win ~block:false do
    ()
  done;
  pump win;
  while not (Fifo.is_empty win.pending) do
    settle_stalled win;
    pump win
  done

(* A barrier-edge request: it travels alone, so the window drains
   before it is sent, and is empty again once it is settled. *)
let round win fr =
  Fifo.push fr win.pending;
  drain win

(* Empty the window, returning its frames in order. *)
let take_frames win =
  let frames = Fifo.to_list win.flight @ Fifo.to_list win.pending in
  let rec empty q = if not (Fifo.is_empty q) then (ignore (Fifo.pop q); empty q) in
  empty win.flight;
  empty win.pending;
  win.flight_bytes <- 0;
  win.held <- None;
  frames

(* The unacknowledged stream items, in order — the obligations a
   retiring copy re-routes. *)
let take_unacked win =
  List.concat_map
    (fun fr -> match fr.kind with Items -> fr.items | Control _ | Replay -> [])
    (take_frames win)

(* --- the persistent worker pool -------------------------------------- *)

type pool = {
  p_mu : Mutex.t;
  p_free : worker Queue.t;
      (* Parked, role-less workers in release order.  Binding takes the
         one parked longest, so consecutive runs spread over the pool
         rather than re-binding the workers the previous run just
         released: on a 2-core host that reuse cost ~10% more CPU, in
         the parent and in the workers, per streambench job. *)
  mutable p_closed : bool;
  p_size : int;  (* workers forked at creation *)
}

let default_pool_workers = 8

let pool_create ?(workers = default_pool_workers) ?frame_bytes () :
    (pool, Supervisor.run_error) result =
  if not available then
    Error (Supervisor.Unsupported "the proc backend needs Unix.fork")
  else begin
    (* Rings are mapped once, at fork time: a pool caller that knows
       its plans' largest frame sizes the slots here.  Undersized slots
       stay correct later via the overflow-to-socket fallback. *)
    let slot_bytes =
      Option.map (fun fb -> Shm.plan_slot_bytes ~frame_bytes:fb) frame_bytes
    in
    let spawned = ref [] in
    let fork_one () =
      let parent_conn, child_conn = Shm.pair ?slot_bytes () in
      match Unix.fork () with
      | 0 ->
          (* Keep only our own channel: inherited parent-side fds of
             earlier workers would defeat their EOF detection. *)
          Shm.close parent_conn;
          List.iter (fun w -> Shm.close w.conn) !spawned;
          worker_loop child_conn
      | pid ->
          Shm.close child_conn;
          let w = { pid; conn = parent_conn } in
          spawned := w :: !spawned;
          w
    in
    match List.init (max 1 workers) (fun _ -> fork_one ()) with
    | ws ->
        Ok
          {
            p_mu = Mutex.create ();
            p_free = Queue.of_seq (List.to_seq ws);
            p_closed = false;
            p_size = List.length ws;
          }
    | exception e ->
        (* fork refused (a domain has already been spawned) or no
           channel could be made (no rings, no socketpair): reclaim
           whatever we managed to fork and report like a platform
           without fork. *)
        List.iter (reap_worker ~kill:true "pool") !spawned;
        Error
          (Supervisor.Unsupported
             (match e with Failure m -> m | e -> Printexc.to_string e))
  end

let pool_size p = p.p_size

let pool_free p =
  Mutex.lock p.p_mu;
  let n = Queue.length p.p_free in
  Mutex.unlock p.p_mu;
  n

let pool_pids p =
  Mutex.lock p.p_mu;
  let pids = Queue.fold (fun acc w -> w.pid :: acc) [] p.p_free in
  Mutex.unlock p.p_mu;
  List.sort compare pids

let pool_shutdown p =
  Mutex.lock p.p_mu;
  let ws = List.of_seq (Queue.to_seq p.p_free) in
  Queue.clear p.p_free;
  p.p_closed <- true;
  Mutex.unlock p.p_mu;
  List.iter (shutdown_worker "pool") ws

(* Send a pool control frame and wait for its [Done] ack, absorbing
   telemetry shipped ahead of it; false on any failure. *)
let acked ~absorb (w : worker) msg =
  try
    Shm.send w.conn msg;
    let rec wait () =
      match Shm.recv w.conn with
      | Some (Wire.Telemetry t) ->
          absorb t;
          wait ()
      | Some Wire.Done -> true
      | _ -> false
    in
    wait ()
  with _ -> false

(* Check a worker out and bind it to a role: ship the marshalled
   [bind_info], wait for the ack.  A worker that dies at bind time is
   dropped from the pool and the next free one is tried — only an
   empty pool fails. *)
let pool_acquire p ~absorb ~role ~index ~tid ~lbl : worker =
  let blob =
    try
      Marshal.to_bytes
        { bi_role = role; bi_index = index; bi_tid = tid;
          bi_telem = Obs.Trace.is_enabled () }
        [ Marshal.Closures ]
    with e ->
      failwith
        (lbl ^ ": filter closure not marshallable for pool dispatch: "
       ^ Printexc.to_string e)
  in
  let rec try_next () =
    Mutex.lock p.p_mu;
    let picked = Queue.take_opt p.p_free in
    Mutex.unlock p.p_mu;
    match picked with
    | None -> failwith ("worker pool exhausted binding " ^ lbl)
    | Some w when acked ~absorb w (Wire.Bind blob) -> w
    | Some w ->
        Logs.warn (fun m ->
            m "pool worker pid %d failed to bind %s; dropping it" w.pid lbl);
        reap_worker ~kill:true lbl w;
        try_next ()
  in
  try_next ()

(* Return a worker the run no longer needs: unbind it (flushing its
   telemetry tail) and check it back in for the next plan.  A worker
   that fails the unbind round trip is dropped from the pool. *)
let pool_release p ~absorb lbl (w : worker) =
  if acked ~absorb w Wire.Unbind then begin
    Mutex.lock p.p_mu;
    if p.p_closed then begin
      Mutex.unlock p.p_mu;
      shutdown_worker lbl w
    end
    else begin
      Queue.push w p.p_free;
      Mutex.unlock p.p_mu
    end
  end
  else begin
    Logs.warn (fun m ->
        m "proc worker %s pid %d failed to unbind; dropping it" lbl w.pid);
    reap_worker ~kill:true lbl w
  end

(* Pool workers one copy of stage [s] may need: a source copy one (it
   is never restarted), a non-sink inner copy one plus a replacement
   for every restart the supervisor may grant, a sink copy none (it
   runs in the parent). *)
let workers_per_copy eng s =
  match (List.nth (Engine.topology eng).Topology.stages s).Topology.role with
  | Topology.Source _ -> 1
  | Topology.Inner _ | Topology.Sink _ ->
      if Engine.is_sink_stage eng s then 0
      else 1 + (Engine.policy eng).Supervisor.max_retries

(* Workers a plan needs from its pool, dormant elastic slots included. *)
let required_workers eng =
  let n = ref 0 in
  for s = 0 to Engine.n_stages eng - 1 do
    n := !n + (Engine.slots eng s * workers_per_copy eng s)
  done;
  !n

(* --- the run --------------------------------------------------------- *)

(* The run-ending error of a sink whose local call gave up, with the
   item it held — the one obligation it must re-route. *)
exception Unacked of exn * Engine.item

let run_on pool eng ~queue_capacity ?metrics_interval_s ?inflight
    (topo : Topology.t) : (Engine.metrics, Supervisor.run_error) result =
  let policy = Engine.policy eng in
  let n_stages = Engine.n_stages eng in
  let stop = Engine.stop_flag eng in
  let stages = Array.of_list topo.Topology.stages in
  let label s k = Topology.copy_label topo ~stage:s ~copy:k in
  (* Worker-shipped telemetry: spans merge into the process-wide trace
     under the worker's real pid; the latest cumulative counters per
     pid feed the metrics "workers" section.  Every driver domain
     absorbs and binds replacement workers, hence the lock. *)
  let telem_lock = Mutex.create () in
  let worker_counters : (int, (string * float) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let pid_copy : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let all_workers : worker list ref = ref [] in
  let absorb (t : Wire.telemetry) =
    Obs.Trace.emit_shipped ~pid:t.Wire.w_pid
      (List.map
         (fun (s : Wire.span) ->
           Obs.Trace.Span
             {
               name = s.Wire.s_name;
               cat = s.Wire.s_cat;
               ts = s.Wire.s_ts;
               dur = s.Wire.s_dur;
               tid = s.Wire.s_tid;
               args = [];
             })
         t.Wire.w_spans);
    Mutex.lock telem_lock;
    Hashtbl.replace worker_counters t.Wire.w_pid t.Wire.w_counters;
    Mutex.unlock telem_lock
  in
  (* Credit window depth: explicit arg beats the CGPPC_INFLIGHT env var
     beats the default. *)
  let inflight = resolve_inflight inflight in
  (* Check a pool worker out for copy (s, k) — at set-up, and again for
     every restart. *)
  let bind s k =
    let role =
      match stages.(s).Topology.role with
      | Topology.Source mk -> Ship_source mk
      | Topology.Inner mk | Topology.Sink mk -> Ship_filter mk
    in
    let w =
      pool_acquire pool ~absorb ~role ~index:k
        ~tid:(Topology.copy_tid topo ~stage:s ~copy:k)
        ~lbl:(label s k)
    in
    Mutex.lock telem_lock;
    all_workers := w :: !all_workers;
    Hashtbl.replace pid_copy w.pid (s, k);
    Mutex.unlock telem_lock;
    if Obs.Trace.is_enabled () then
      Obs.Trace.name_process ~pid:w.pid
        (Printf.sprintf "cgpp worker %s" (label s k));
    w
  in
  (* One window per source and non-sink inner slot (sinks run in the
     parent), dormant elastic slots included: their workers are bound
     up front, so a mid-run spawn only starts a driver domain. *)
  let windows : window option array array =
    Array.init n_stages (fun s -> Array.make (Engine.slots eng s) None)
  in
  let release_all () =
    Array.iteri
      (fun s row ->
        Array.iteri
          (fun k -> function
            | Some win ->
                Option.iter (pool_release pool ~absorb (label s k)) win.worker;
                win.worker <- None
            | None -> ())
          row)
      windows
  in
  (* A dead child turns writes into EPIPE errors rather than a fatal
     signal. *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore_sigpipe () =
    match prev_sigpipe with
    | Some b -> (
        try Sys.set_signal Sys.sigpipe b
        with Invalid_argument _ | Sys_error _ -> ())
    | None -> ()
  in
  let setup () =
    (* fail fast with a sized message instead of binding a partial
       complement *)
    let required = required_workers eng in
    Mutex.lock pool.p_mu;
    let free = Queue.length pool.p_free and closed = pool.p_closed in
    Mutex.unlock pool.p_mu;
    if closed then failwith "worker pool is shut down";
    if free < required then
      failwith
        (Printf.sprintf "worker pool too small: plan needs %d workers, %d free"
           required free);
    let filler = mk_frame Items [] in
    for s = 0 to n_stages - 1 do
      if workers_per_copy eng s > 0 then
        for k = 0 to Engine.slots eng s - 1 do
          let cs = Engine.copy_at eng ~stage:s ~copy:k in
          windows.(s).(k) <-
            Some
              {
                label = label s k;
                depth = inflight;
                worker = Some (bind s k);
                pending = Fifo.create filler;
                flight = Fifo.create filler;
                flight_bytes = 0;
                held = None;
                last_ack = 0.0;
                stall_s = 0.0;
                absorb;
                charge = (fun name f -> Engine.timed_call eng cs ~name f);
                settle = (fun _ _ -> ());
                on_error = raise;
              }
        done
    done;
    (* One run-scoped spill dir when the run is budgeted, made last so
       a failed set-up leaves none; removed on every exit path.
       Queues (and so spilling) live in the parent. *)
    if n_stages > 1 && Engine.queue_budget eng ~stage:1 <> None then
      Some (Spill.create_dir ())
    else None
  in
  match setup () with
  | exception e ->
      release_all ();
      restore_sigpipe ();
      Error
        (Supervisor.Unsupported
           (match e with Failure m -> m | e -> Printexc.to_string e))
  | spill_dir ->
  let queues =
    Array.init n_stages (fun s ->
        if s = 0 then [||]
        else
          let spill =
            match (spill_dir, Engine.queue_budget eng ~stage:s) with
            | Some dir, Some budget ->
                Some
                  (Bqueue.spill_config ~budget ~dir ~encode:encode_msg
                     ~decode:decode_msg)
            | _ -> None
          in
          Array.init (Engine.slots eng s) (fun _ ->
              (Bqueue.create ~cost:msg_cost ?spill ~stop queue_capacity
                : msg Bqueue.t)))
  in
  (* exec_spawn needs the copy body, defined below — a forward ref; no
     spawn can occur before the autoscaler starts. *)
  let spawn_hook : (stage:int -> copy:int -> unit) ref =
    ref (fun ~stage:_ ~copy:_ -> ())
  in
  let blocked_push (src : Engine.copy) q m =
    Engine.set_lifecycle src Engine.st_blocked_push;
    let blocked = Bqueue.push q m in
    Engine.set_lifecycle src Engine.st_idle;
    Engine.note_progress eng;
    Engine.note_stall_push eng src blocked
  in
  let blocked_push_all (src : Engine.copy) q ms =
    Engine.set_lifecycle src Engine.st_blocked_push;
    let blocked = Bqueue.push_all q ms in
    Engine.set_lifecycle src Engine.st_idle;
    Engine.note_progress eng;
    Engine.note_stall_push eng src blocked
  in
  Engine.attach eng
    {
      exec_backend = Engine.Proc;
      exec_now = Obs.Clock.elapsed_s;
      exec_sleep = Unix.sleepf;
      exec_send =
        (fun ~src ~dst_stage ~dst_copy it ->
          blocked_push src queues.(dst_stage).(dst_copy) (It it));
      exec_send_batch =
        (fun ~src ~dst_stage ~dst_copy items ->
          blocked_push_all src
            queues.(dst_stage).(dst_copy)
            (List.map (fun it -> It it) items));
      exec_queue_len =
        (fun ~stage ~copy ->
          if stage = 0 then 0 else Bqueue.length queues.(stage).(copy));
      exec_queue_stats =
        (fun ~stage ~copy ->
          if stage = 0 then Engine.no_queue_stats
          else Engine.queue_stats_of_bqueue (Bqueue.stats queues.(stage).(copy)));
      exec_wake = (fun () -> Array.iter (Array.iter Bqueue.wake) queues);
      exec_spawn = (fun ~stage ~copy -> !spawn_hook ~stage ~copy);
      (* a voluntarily retired copy's driver keeps draining its queue
         and releases its worker normally — nothing to do here *)
      exec_retire = (fun ~stage:_ ~copy:_ -> ());
      (* the marker-quota barrier edge settles the copy's window *)
      exec_drain = (fun ~stage ~copy -> Option.iter drain windows.(stage).(copy));
    };
  let abort_raise err = Engine.abort eng err; raise Bqueue.Aborted in
  let ok = function Ok () -> () | Error e -> abort_raise e in

  let copy_body s k () =
    let cs = Engine.copy_at eng ~stage:s ~copy:k in
    let charge name f = Engine.timed_call eng cs ~name f in
    let send it = ok (Engine.send_downstream eng cs it) in
    (* One accounted attempt at a stream item — the only fault tick of
       this backend, in ack order: sinks run it around their local
       call, remote copies when the worker's response is settled.
       Returns the scripted slowdown over the call's [elapsed]
       seconds. *)
    let attempt ~elapsed =
      Fault.tick cs.Engine.fstate;
      Fault.extra_delay cs.Engine.fstate ~elapsed:(elapsed ())
    in
    let slow_down name extra =
      if extra > 0.0 then charge name (fun () -> Unix.sleepf extra)
    in
    match stages.(s).Topology.role with
    | Topology.Source _ ->
        (* Up to [inflight] pipelined [Next] requests ride against the
           worker, which answers in order — Data frames, then Done (the
           child's src_done guard answers queued leftovers with Done
           without touching the exhausted source).  Sources are never
           rebuilt: their cursor lives in the worker, so a failed
           attempt is retried in place — a failed tick re-settles the
           same response, a crashed callback is answered by the next
           request.  Only a dead worker makes every retry fail. *)
        let win = Option.get windows.(s).(k) in
        let finished = ref false in
        let produced fr resp =
          match attempt ~elapsed:(fun () -> service win fr) with
          | extra -> slow_down "produce" extra
          | exception e ->
              win.held <- Some resp;
              raise e
        in
        win.settle <-
          (fun fr resp ->
            match (fr.kind, resp) with
            | Control Wire.Init, Wire.Done -> pop_head win
            | Control Wire.Next, Wire.Out (Some (Engine.Data b)) ->
                produced fr resp;
                pop_head win;
                Engine.note_item_done eng cs;
                send (Engine.Data b)
            | Control Wire.Next, Wire.Done ->
                if not !finished then begin
                  produced fr resp;
                  finished := true
                end;
                pop_head win
            | Control Wire.Next, Wire.Crashed msg ->
                produced fr resp;
                pop_head win;
                raise (Remote_crash msg)
            | Control Wire.Src_finalize, Wire.Out out ->
                pop_head win;
                Option.iter send out
            | Control _, Wire.Crashed msg ->
                (* a failed Init/Src_finalize is asked again *)
                pop_head win;
                Fifo.push fr win.pending;
                raise (Remote_crash msg)
            | _ -> lose win "out-of-protocol response from worker");
        win.on_error <-
          (fun err ->
            if Engine.aborting eng then raise Bqueue.Aborted;
            match Engine.on_crash eng cs with
            | `Retry delay -> if delay > 0.0 then Unix.sleepf delay
            | `Give_up -> raise err);
        let rec stream () =
          if Engine.aborting eng then raise Bqueue.Aborted;
          if not !finished then begin
            while Fifo.length win.flight + Fifo.length win.pending < inflight do
              Fifo.push (mk_frame (Control Wire.Next) []) win.pending
            done;
            pump win
          end;
          if Fifo.length win.flight >= inflight then begin
            settle_stalled win;
            stream ()
          end
          else if settle_next win ~block:true then stream ()
        in
        (match
           round win (barrier Wire.Init);
           stream ();
           round win (barrier Wire.Src_finalize)
         with
        | () -> send Engine.Marker
        | exception Bqueue.Aborted -> raise Bqueue.Aborted
        | exception err -> (
            (* The stream truncates at the failed item: nothing still in
               flight is forwarded, and the worker goes with it. *)
            kill win;
            match Engine.retire eng cs ~error:err with
            | `Fatal e -> abort_raise e
            | `Continue -> send Engine.Marker))
    | Topology.Inner _ | Topology.Sink _ ->
        let is_last = Engine.is_sink_stage eng s in
        let ring = Engine.Ring.create ~retention:policy.Supervisor.retention in
        let q = queues.(s).(k) in
        (* Batched receive: drain up to the upstream's batch cap in one
           queue round-trip into a local pending buffer.  At cap 1 this
           is exactly the old single-item [pop]. *)
        let in_cap = Engine.input_batch eng s in
        let pend : msg Queue.t = Queue.create () in
        let recv () =
          if not (Queue.is_empty pend) then Queue.pop pend
          else begin
            Engine.set_lifecycle cs Engine.st_blocked_pop;
            let ms, blocked =
              if in_cap <= 1 then
                let m, blocked = Bqueue.pop q in
                ([ m ], blocked)
              else Bqueue.pop_all q ~max:in_cap
            in
            Engine.set_lifecycle cs Engine.st_idle;
            Engine.note_progress eng;
            Engine.note_stall_pop eng cs blocked;
            match ms with
            | [] -> assert false
            | m :: rest ->
                List.iter (fun m' -> Queue.push m' pend) rest;
                m
          end
        in
        let replay_ring call =
          if Engine.Ring.truncated ring then
            Engine.bump eng (fun r ->
                r.Supervisor.replay_truncated <- r.replay_truncated + 1);
          List.iter
            (fun it ->
              Engine.bump eng (fun r -> r.Supervisor.replayed <- r.replayed + 1);
              call it)
            (Engine.Ring.items ring)
        in
        (* The role's callbacks: [init], one data item (a remote copy
           takes the whole run of consecutive data items [pend] holds
           into one frame), one EOS payload, [finalize], and the
           unacknowledged items to re-route on retirement. *)
        let init, on_data, on_final, finalize, unacked =
          if is_last then begin
            (* A sink runs its filter here, in the parent, under the
               same supervision skeleton as [Par_runtime]: tick, call,
               and on a crash a fresh instance with the retention ring
               replayed (outputs suppressed). *)
            let instance () =
              match Engine.instantiate eng cs with
              | Engine.I_filter f -> f
              | Engine.I_source _ -> assert false
            in
            let f = ref (instance ()) in
            let rec supervised ?(restarting = false) name op =
              if Engine.aborting eng then raise Bqueue.Aborted;
              match
                if restarting then begin
                  f := instance ();
                  ignore (charge "init" (fun () -> (!f).Filter.init ()));
                  replay_ring (fun it ->
                      let name =
                        match it with Engine.Final _ -> "replay_eos" | _ -> "replay"
                      in
                      ignore (charge name (fun () -> step !f it)))
                end;
                charge name op
              with
              | r -> r
              | exception Bqueue.Aborted -> raise Bqueue.Aborted
              | exception e -> (
                  match Engine.on_crash eng cs with
                  | `Give_up -> raise e
                  | `Retry delay ->
                      if delay > 0.0 then Unix.sleepf delay;
                      supervised ~restarting:true name op)
            in
            let holding it name op =
              match supervised name op with
              | () -> Engine.Ring.push ring it
              | exception Bqueue.Aborted -> raise Bqueue.Aborted
              | exception e -> raise (Unacked (e, it))
            in
            ( (fun () -> ignore (supervised "init" (fun () -> (!f).Filter.init ()))),
              (fun b ->
                holding (Engine.Data b) "process" (fun () ->
                    let extra =
                      attempt ~elapsed:(fun () ->
                          let t0 = Obs.Clock.elapsed_s () in
                          ignore ((!f).Filter.process b);
                          Obs.Clock.elapsed_s () -. t0)
                    in
                    if extra > 0.0 then Unix.sleepf extra);
                Engine.note_item_done eng cs),
              (fun b ->
                holding (Engine.Final b) "on_eos" (fun () ->
                    ignore ((!f).Filter.on_eos (Some b)))),
              (fun () ->
                ignore (supervised "finalize" (fun () -> (!f).Filter.finalize ()))),
              fun () -> [] )
          end
          else begin
            let win = Option.get windows.(s).(k) in
            let ack fr out =
              match fr.items with
              | [] -> raise (Remote_crash "worker acknowledged more items than sent")
              | it :: rest ->
                  (match it with
                  | Engine.Data _ ->
                      slow_down "process"
                        (attempt ~elapsed:(fun () -> service win fr));
                      Engine.note_item_done eng cs
                  | Engine.Final _ | Engine.Marker -> ());
                  Option.iter send out;
                  Engine.Ring.push ring it;
                  fr.items <- rest
            in
            (* the head item's attempt failed in the worker *)
            let failed fr msg =
              (match fr.items with
              | Engine.Data _ :: _ -> ignore (attempt ~elapsed:(fun () -> 0.0))
              | _ -> ());
              raise (Remote_crash msg)
            in
            win.settle <-
              (fun fr resp ->
                match (fr.kind, resp) with
                | Control Wire.Init, Wire.Done | Replay, Wire.Out _ -> pop_head win
                | Control Wire.Finalize, Wire.Out out ->
                    pop_head win;
                    Option.iter send out
                | Items, Wire.Out out -> (
                    ack fr out;
                    match fr.items with
                    | [] -> pop_head win
                    | _ -> raise (Remote_crash "single ack for a batch frame"))
                | Items, Wire.Outs (outs, err) -> (
                    List.iter (ack fr) outs;
                    Option.iter (failed fr) err;
                    match fr.items with
                    | [] -> pop_head win
                    | _ ->
                        raise
                          (Remote_crash "worker acknowledged fewer items than sent"))
                | Items, Wire.Crashed msg -> failed fr msg
                | _, Wire.Crashed msg -> raise (Remote_crash msg)
                | _ -> lose win "out-of-protocol response from worker");
            (* Crash recovery: kill the worker (real SIGKILL + waitpid),
               then either give up — the window keeps its unacknowledged
               items for the re-route — or restart onto a replacement
               from the pool: Init, the retention ring replayed with
               outputs suppressed, then every unacknowledged frame in
               order.  Those frames tick again when they settle, so a
               fault plan counts the same attempts at any depth. *)
            let rec recover err =
              if Engine.aborting eng then raise Bqueue.Aborted;
              kill win;
              match Engine.on_crash eng cs with
              | `Give_up -> raise err
              | `Retry delay -> (
                  if delay > 0.0 then Unix.sleepf delay;
                  match bind s k with
                  | exception (Failure m) -> recover (Remote_crash m)
                  | w ->
                      win.worker <- Some w;
                      let resend =
                        List.filter
                          (fun fr ->
                            match fr.kind with
                            | Items -> fr.items <> []
                            | Control Wire.Init | Replay -> false
                            | Control _ -> true)
                          (take_frames win)
                      in
                      Fifo.push (barrier Wire.Init) win.pending;
                      replay_ring (fun it ->
                          Fifo.push (mk_frame Replay [ it ]) win.pending);
                      List.iter (fun fr -> Fifo.push fr win.pending) resend)
            in
            win.on_error <- recover;
            (* a run of consecutive data items already popped *)
            let rec data_run acc =
              match Queue.peek_opt pend with
              | Some (It (Engine.Data b)) ->
                  ignore (Queue.pop pend);
                  data_run (Engine.Data b :: acc)
              | _ -> List.rev acc
            in
            ( (fun () -> round win (barrier Wire.Init)),
              (fun b -> submit win (mk_frame Items (data_run [ Engine.Data b ]))),
              (fun b -> round win (mk_frame ~alone:true Items [ Engine.Final b ])),
              (fun () -> round win (barrier Wire.Finalize)),
              fun () -> take_unacked win )
          end
        in
        let count_eos () =
          match Engine.count_eos eng cs with
          | `Already | `Counted -> ()
          | `Stage_drained ->
              (* wake the engaged members only — a dormant slot's queue
                 has no driver to take the token *)
              for j = 0 to Engine.engaged_width eng s - 1 do
                ignore (Bqueue.push queues.(s).(j) Release)
              done
        in
        (* Retirement: re-route every obligation — the unacknowledged
           items, then whatever sits in the local batch buffer — and
           turn zombie router until the stage drain barrier releases. *)
        let retire err items =
          (match Engine.retire eng cs ~error:err with
          | `Fatal e -> abort_raise e
          | `Continue -> ());
          let reroute = function
            | (Engine.Data _ | Engine.Final _) as it -> ok (Engine.reroute eng cs it)
            | Engine.Marker -> ()
          in
          List.iter reroute items;
          Queue.iter
            (function
              | It Engine.Marker -> Engine.note_marker eng cs
              | It it -> reroute it
              | Release -> ())
            pend;
          Queue.clear pend;
          let rec zombie () =
            if Engine.at_marker_quota eng cs then count_eos ();
            if
              Engine.at_marker_quota eng cs
              && Engine.barrier_released eng s
            then begin
              let rec sweep () =
                match Bqueue.try_pop q with
                | Some (It it) ->
                    reroute it;
                    sweep ()
                | Some Release -> sweep ()
                | None -> ()
              in
              sweep ();
              if not is_last then send Engine.Marker
            end
            else
              match recv () with
              | It Engine.Marker -> Engine.note_marker eng cs; zombie ()
              | It it ->
                  reroute it;
                  zombie ()
              | Release -> zombie ()
          in
          zombie ()
        in
        let finalize_copy () =
          finalize ();
          if not is_last then send Engine.Marker
        in
        let serve () =
          init ();
          (* After the last upstream marker this copy's own stream is
             done, but retired siblings may still re-route buffers here:
             keep serving until the stage drain barrier releases. *)
          let rec eos_wait () =
            match recv () with
            | Release ->
                if Engine.barrier_released eng s then finalize_copy ()
                else eos_wait ()
            | It (Engine.Data b) -> on_data b; eos_wait ()
            | It (Engine.Final b) -> on_final b; eos_wait ()
            | It Engine.Marker -> Engine.note_marker eng cs; eos_wait ()
          in
          let rec loop () =
            match recv () with
            | It (Engine.Data b) -> on_data b; loop ()
            | It (Engine.Final b) -> on_final b; loop ()
            | Release -> loop ()
            | It Engine.Marker ->
                Engine.note_marker eng cs;
                if Engine.at_marker_quota eng cs then begin
                  count_eos ();
                  eos_wait ()
                end
                else loop ()
          in
          loop ()
        in
        (try serve () with
        | Bqueue.Aborted -> raise Bqueue.Aborted
        | Unacked (err, it) -> retire err [ it ]
        | err -> retire err (unacked ()))
  in

  let wrapped_body s k () =
    let cs = Engine.copy_at eng ~stage:s ~copy:k in
    (try copy_body s k () with
    | Bqueue.Aborted | Bqueue.Closed -> ()
    | e ->
        Engine.abort eng
          (Supervisor.Stage_dead
             {
               stage = s;
               stage_name = Engine.stage_name eng s;
               error = "unexpected runtime error: " ^ Printexc.to_string e;
             }));
    Engine.set_lifecycle cs Engine.st_done;
    Engine.mark_exited cs
  in

  (* Mid-run spawns promote a dormant slot: its worker was bound at
     set-up; all that is left is starting a driver domain. *)
  let elastic_mu = Mutex.create () in
  let elastic : (int * int * unit Domain.t) list ref = ref [] in
  (spawn_hook :=
     fun ~stage ~copy ->
       let d = Domain.spawn (wrapped_body stage copy) in
       Mutex.lock elastic_mu;
       elastic := (stage, copy, d) :: !elastic;
       Mutex.unlock elastic_mu);
  let t0 = Obs.Clock.elapsed_s () in
  let domains =
    List.concat
      (List.init n_stages (fun s ->
           List.init (Engine.width eng s) (fun k ->
               (s, k, Domain.spawn (wrapped_body s k)))))
  in
  let autoscaler =
    if Engine.autoscale_enabled eng then
      Some (Domain.spawn (fun () -> Engine.autoscale_loop eng))
    else None
  in
  let watchdog =
    match policy.Supervisor.watchdog_ms with
    | Some ms when ms > 0 ->
        Some (Domain.spawn (fun () -> Engine.watchdog_loop eng ~ms))
    | _ -> None
  in
  let sampler =
    match metrics_interval_s with
    | Some iv when iv > 0.0 ->
        let smp = Engine.sampler_create eng ~interval_s:iv in
        Some (smp, Domain.spawn (fun () -> Engine.sampler_loop eng smp))
    | _ -> None
  in
  let join_copy (s, k, d) =
    let cs = Engine.copy_at eng ~stage:s ~copy:k in
    let rec wait deadline =
      if Atomic.get cs.Engine.exited then Domain.join d
      else if Engine.aborting eng then begin
        let deadline =
          match deadline with
          | Some t -> t
          | None -> Obs.Clock.elapsed_s () +. 1.0
        in
        if Obs.Clock.elapsed_s () > deadline then
          Logs.warn (fun m -> m "leaking stuck filter copy %s" (label s k))
        else begin
          Unix.sleepf 0.002;
          wait (Some deadline)
        end
      end
      else begin Unix.sleepf 0.001; wait deadline end
    in
    wait None
  in
  List.iter join_copy domains;
  (* Once every planned copy has exited the pipeline is drained and new
     spawns are refused [`Late], so this list converges. *)
  let rec join_elastic () =
    Mutex.lock elastic_mu;
    let ds = !elastic in
    elastic := [];
    Mutex.unlock elastic_mu;
    if ds <> [] then begin
      List.iter join_copy ds;
      join_elastic ()
    end
  in
  join_elastic ();
  (match autoscaler with Some d -> Domain.join d | None -> ());
  (match watchdog with Some d -> Domain.join d | None -> ());
  (match sampler with Some (_, d) -> Domain.join d | None -> ());
  (* Graceful queue close: leaked stuck copies (abort path) wake with
     [Closed] instead of blocking forever once their worker dies. *)
  Array.iter (Array.iter Bqueue.close) queues;
  (* Unbind the surviving workers back into the pool. *)
  release_all ();
  restore_sigpipe ();
  let wall_time = Obs.Clock.elapsed_s () -. t0 in
  (* Per-copy rollup of the workers' final cumulative counters: worker
     pids, busy seconds measured inside the children and callback
     counts.  Only present when workers actually shipped telemetry. *)
  let workers_section () =
    let per_copy : (int * int, float * float * int list) Hashtbl.t =
      Hashtbl.create 8
    in
    Hashtbl.iter
      (fun pid counters ->
        match Hashtbl.find_opt pid_copy pid with
        | None -> ()
        | Some key ->
            let get name =
              match List.assoc_opt name counters with
              | Some v -> v
              | None -> 0.0
            in
            let b0, c0, pids =
              Option.value ~default:(0.0, 0.0, [])
                (Hashtbl.find_opt per_copy key)
            in
            Hashtbl.replace per_copy key
              (b0 +. get "busy_s", c0 +. get "calls", pid :: pids))
      worker_counters;
    if Hashtbl.length per_copy = 0 then []
    else begin
      let entries = ref [] in
      for s = n_stages - 1 downto 0 do
        for k = Engine.slots eng s - 1 downto 0 do
          match Hashtbl.find_opt per_copy (s, k) with
          | None -> ()
          | Some (busy, calls, pids) ->
              entries :=
                ( label s k,
                  Obs.Json.Obj
                    [
                      ("busy_s", Obs.Json.Float busy);
                      ("calls", Obs.Json.Int (int_of_float calls));
                      ( "pids",
                        Obs.Json.List
                          (List.map
                             (fun p -> Obs.Json.Int p)
                             (List.sort compare pids)) );
                    ] )
                :: !entries
        done
      done;
      [ ("workers", Obs.Json.Obj !entries) ]
    end
  in
  (* Transport rollup: parent-side ring stats summed over every worker
     channel this run touched (the counters are plain fields on the
     channel record, so they stay readable after release/close), plus
     the driver-side credit-stall clock. *)
  let transport_section () =
    let overflow = ref 0 and occ_hw = ref 0 and slot_b = ref 0
    and backstop = ref 0 in
    List.iter
      (fun w ->
        let st = Shm.stats w.conn in
        overflow := !overflow + st.Shm.overflow_frames;
        occ_hw := max !occ_hw st.Shm.occupancy_hw;
        slot_b := max !slot_b st.Shm.slot_bytes;
        backstop := !backstop + st.Shm.backstop_wakeups)
      !all_workers;
    let stall_total = ref 0.0 in
    let stalls = ref [] in
    for s = n_stages - 1 downto 0 do
      for k = Engine.slots eng s - 1 downto 0 do
        match windows.(s).(k) with
        | Some win when win.stall_s > 0.0 ->
            stall_total := !stall_total +. win.stall_s;
            stalls := (label s k, Obs.Json.Float win.stall_s) :: !stalls
        | _ -> ()
      done
    done;
    ( "transport",
      Obs.Json.Obj
        ([
           ("inflight", Obs.Json.Int inflight);
           ("slot_bytes", Obs.Json.Int !slot_b);
           ("overflow_frames", Obs.Json.Int !overflow);
           ("ring_occupancy_hw", Obs.Json.Int !occ_hw);
           ("backstop_wakeups", Obs.Json.Int !backstop);
           ("credit_stall_s", Obs.Json.Float !stall_total);
         ]
        @ if !stalls = [] then [] else [ ("stalls", Obs.Json.Obj !stalls) ]) )
  in
  let result =
    match Engine.abort_error eng with
    | Some e -> Error e
    | None ->
        Ok
          (Engine.metrics eng ~elapsed_s:wall_time
             ~queue_occupancy:
               (Array.init n_stages (fun s ->
                    let n =
                      min (Array.length queues.(s)) (Engine.engaged_width eng s)
                    in
                    Array.init n (fun k -> Bqueue.occupancy queues.(s).(k))))
             ?timeseries:(Option.map (fun (smp, _) -> Engine.sampler_series smp) sampler)
             ~extra:(transport_section () :: workers_section ())
             ())
  in
  Option.iter Spill.remove_dir spill_dir;
  result

let with_engine ?(queue_capacity = 64) ?faults ?policy ?batch ?stage_batch
    ?mem_budget ?queue_budgets ?autoscale topo k =
  if not available then
    Error (Supervisor.Unsupported "the proc backend needs Unix.fork")
  else
    match
      Engine.create ?faults ?policy ~queue_capacity ?batch ?stage_batch
        ?mem_budget ?queue_budgets ?autoscale topo
    with
    | Error e -> Error e
    | Ok eng -> k ~queue_capacity eng

(* A one-shot run is a pool run on an ephemeral pool sized to the plan:
   the same worker lifecycle, forked here while the process is still
   single-domain and shut down after the run. *)
let run_result ?queue_capacity ?faults ?policy ?batch ?stage_batch ?mem_budget
    ?queue_budgets ?metrics_interval_s ?autoscale ?inflight ?frame_bytes topo =
  with_engine ?queue_capacity ?faults ?policy ?batch ?stage_batch ?mem_budget
    ?queue_budgets ?autoscale topo (fun ~queue_capacity eng ->
      match
        pool_create ~workers:(required_workers eng) ?frame_bytes ()
      with
      | Error e -> Error e
      | Ok pool ->
          Fun.protect
            ~finally:(fun () -> pool_shutdown pool)
            (fun () ->
              run_on pool eng ~queue_capacity ?metrics_interval_s ?inflight topo))

let pool_run_result pool ?queue_capacity ?faults ?policy ?batch ?stage_batch
    ?mem_budget ?queue_budgets ?metrics_interval_s ?autoscale ?inflight topo =
  with_engine ?queue_capacity ?faults ?policy ?batch ?stage_batch ?mem_budget
    ?queue_budgets ?autoscale topo (fun ~queue_capacity eng ->
      run_on pool eng ~queue_capacity ?metrics_interval_s ?inflight topo)
