(* Tests for the shared-memory proc channels (Shm) and the persistent
   worker pool: ring wrap-around and full/empty boundaries through the
   nonblocking endpoints, overflow frames falling back to the socket in
   order, a SIGKILLed peer surfacing as EOF/EPIPE instead of a wedge,
   a pool whose rings cannot be mapped failing cleanly (no other data
   path to fall back to), the pool executing several distinct plans on
   one stable set of worker pids, and QCheck round-trips of arbitrary
   frames against the Wire codec's structural equality.

   Ordering matters: the fork-based tests (peer death, pool) run
   before anything could spawn a domain — OCaml 5 permanently refuses
   [Unix.fork] afterwards — and the pool test itself forks its workers
   before its runs spawn driver domains. *)

module Shm = Datacutter.Shm
module Wire = Datacutter.Wire
module Engine = Datacutter.Engine
module Filter = Datacutter.Filter
module Runtime = Datacutter.Runtime
module Supervisor = Datacutter.Supervisor

let crashed i = Wire.Crashed (Printf.sprintf "frame-%d" i)

let expect_crashed what i = function
  | `Msg (Wire.Crashed s) ->
      Alcotest.(check string) what (Printf.sprintf "frame-%d" i) s
  | `Msg _ -> Alcotest.failf "%s: wrong frame kind" what
  | `Empty -> Alcotest.failf "%s: ring unexpectedly empty" what
  | `Eof -> Alcotest.failf "%s: unexpected EOF" what

(* --- ring mechanics, in-process over both endpoints ------------------ *)

let test_wraparound () =
  let a, b = Shm.pair ~slots:8 ~slot_bytes:512 () in
  (* Far more frames than slots, one at a time: the cursor laps the
     ring dozens of times and every frame arrives intact and in
     order. *)
  for i = 0 to 499 do
    Shm.send a (crashed i);
    match Shm.recv b with
    | Some (Wire.Crashed s) ->
        Alcotest.(check string)
          "wrapped frame" (Printf.sprintf "frame-%d" i) s
    | _ -> Alcotest.fail "wrap-around: lost or mangled frame"
  done;
  (* and in the other direction: endpoints are symmetric *)
  for i = 0 to 99 do
    Shm.send b (crashed i);
    match Shm.recv a with
    | Some (Wire.Crashed s) ->
        Alcotest.(check string)
          "reverse frame" (Printf.sprintf "frame-%d" i) s
    | _ -> Alcotest.fail "wrap-around: reverse direction broken"
  done;
  Shm.close a;
  Shm.close b

let test_full_empty_boundary () =
  let a, b = Shm.pair ~slots:8 ~slot_bytes:512 () in
  (match Shm.try_recv b with
  | `Empty -> ()
  | _ -> Alcotest.fail "fresh ring should be empty");
  (* fill to capacity: every slot usable, then a clean refusal *)
  let accepted = ref 0 in
  while Shm.try_send a (crashed !accepted) do
    incr accepted;
    if !accepted > 64 then Alcotest.fail "ring never reported full"
  done;
  Alcotest.(check int) "all 8 slots usable" 8 !accepted;
  (* drain completely, order preserved *)
  for i = 0 to !accepted - 1 do
    expect_crashed "drained frame" i (Shm.try_recv b)
  done;
  (match Shm.try_recv b with
  | `Empty -> ()
  | _ -> Alcotest.fail "drained ring should be empty");
  (* the freed slots are reusable: full cycle again *)
  Alcotest.(check bool) "reusable after drain" true
    (Shm.try_send a (crashed 0));
  expect_crashed "reused slot" 0 (Shm.try_recv b);
  Shm.close a;
  Shm.close b

let test_overflow_in_order () =
  let a, b = Shm.pair ~slots:8 ~slot_bytes:256 () in
  (* Frames alternately below and far above the slot payload: the
     big ones ride the socket behind an in-ring marker, and the
     receiver still sees strict sending order. *)
  let payload i =
    if i mod 2 = 0 then Printf.sprintf "small-%d" i
    else Printf.sprintf "big-%d-%s" i (String.make 4096 'x')
  in
  (* bursts of 6 (≤ the 8 ring slots — a single thread drives both
     endpoints, so a full ring would deadlock), then drain: each
     burst mixes in-ring and overflow frames *)
  for burst = 0 to 4 do
    let base = burst * 6 in
    for i = base to base + 5 do
      Shm.send a (Wire.Crashed (payload i))
    done;
    for i = base to base + 5 do
      match Shm.recv b with
      | Some (Wire.Crashed s) ->
          Alcotest.(check string) "mixed-size frame" (payload i) s
      | _ -> Alcotest.fail "overflow: lost or mangled frame"
    done
  done;
  Shm.close a;
  Shm.close b

(* --- peer death (forks: must precede any domain spawn) --------------- *)

let test_sigkill_peer () =
  let a, b = Shm.pair ~slots:8 ~slot_bytes:512 () in
  match Unix.fork () with
  | 0 ->
      (* child: publish five frames into the shared ring, then die
         holding the mapping — SIGKILL, no cleanup of any kind *)
      Shm.close a;
      for i = 0 to 4 do
        Shm.send b (crashed i)
      done;
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      Unix._exit 1
  | pid ->
      Shm.close b;
      (* frames written before death are still delivered... *)
      for i = 0 to 4 do
        match Shm.recv a with
        | Some (Wire.Crashed s) ->
            Alcotest.(check string)
              "pre-death frame" (Printf.sprintf "frame-%d" i) s
        | _ -> Alcotest.fail "sigkill: pre-death frame lost"
      done;
      (* ...then the death surfaces as EOF, not a wedge *)
      (match Shm.recv a with
      | None -> ()
      | Some _ -> Alcotest.fail "sigkill: expected EOF after peer death");
      (* and a blocked send surfaces as EPIPE once the ring fills *)
      let saw_epipe = ref false in
      (try
         for i = 0 to 99 do
           Shm.send a (crashed i)
         done
       with Unix.Unix_error (Unix.EPIPE, _, _) -> saw_epipe := true);
      Alcotest.(check bool) "EPIPE on dead peer" true !saw_epipe;
      ignore (Unix.waitpid [] pid);
      Shm.close a

(* --- the persistent pool (forks, then spawns domains) ----------------- *)

(* [true] iff this process has no child, running or unreaped. *)
let no_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

(* The rings are the only data path: when they cannot be mapped (here:
   the temp directory their backing files live in is missing), pool
   creation must report [Unsupported] instead of degrading, and must
   leave no worker behind. *)
let test_pool_no_rings () =
  if Datacutter.Proc_runtime.available then begin
    Alcotest.(check bool) "no children before" true (no_children ());
    let tmp = Filename.get_temp_dir_name () in
    let res =
      Fun.protect
        ~finally:(fun () -> Filename.set_temp_dir_name tmp)
        (fun () ->
          Filename.set_temp_dir_name
            (Filename.concat tmp
               (Printf.sprintf "cgppc-missing-%d" (Unix.getpid ())));
          Runtime.pool_create ~workers:3 ())
    in
    (match res with
    | Error (Supervisor.Unsupported _) -> ()
    | Error e ->
        Alcotest.failf "expected Unsupported, got %a" Supervisor.pp_run_error e
    | Ok pool ->
        Runtime.pool_shutdown pool;
        Alcotest.fail "pool_create succeeded without mappable rings");
    Alcotest.(check bool) "no worker left behind" true (no_children ())
  end

let buffer_of_int packet =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int packet);
  Filter.make_buffer ~packet b

let int_of_buffer (b : Filter.buffer) =
  Int64.to_int (Bytes.get_int64_le b.Filter.data 0)

let source n _copy =
  let i = ref 0 in
  {
    Filter.src_name = "src";
    next =
      (fun () ->
        if !i >= n then None
        else begin
          let p = !i in
          incr i;
          Some (buffer_of_int p, 1.0)
        end);
    src_finalize = (fun () -> (None, 0.0));
  }

let recording_sink () =
  let mutex = Mutex.create () in
  let packets = ref [] in
  let sink _ =
    {
      (Filter.pass_through "sink") with
      Filter.process =
        (fun b ->
          Mutex.lock mutex;
          packets := int_of_buffer b :: !packets;
          Mutex.unlock mutex;
          (None, 1.0));
    }
  in
  (sink, fun () -> List.sort compare !packets)

let make_topo ~n ~mid_width ~mid () =
  let sink, got = recording_sink () in
  let topo =
    Datacutter.Topology.create
      ~stages:
        [
          { Datacutter.Topology.stage_name = "src"; width = 1; power = 100.0;
            role = Datacutter.Topology.Source (source n) };
          { Datacutter.Topology.stage_name = "mid"; width = mid_width;
            power = 100.0; role = Datacutter.Topology.Inner mid };
          { Datacutter.Topology.stage_name = "sink"; width = 1; power = 100.0;
            role = Datacutter.Topology.Sink sink };
        ]
      ~links:
        [
          { Datacutter.Topology.bandwidth = 1e6; latency = 0.0 };
          { Datacutter.Topology.bandwidth = 1e6; latency = 0.0 };
        ]
  in
  (topo, got)

let passthrough_mid _ = Filter.pass_through "mid"

let plus100_mid _ =
  {
    (Filter.pass_through "mid") with
    Filter.process = (fun b -> (Some (buffer_of_int (int_of_buffer b + 100)), 1.0));
  }

(* Worker pids a run actually used, from the metrics ["workers"]
   rollup (present because tracing is on). *)
let pids_of_metrics m =
  match Obs.Json.member "workers" (Runtime.metrics_to_json m) with
  | Obs.Json.Obj entries ->
      List.concat_map
        (fun (_, entry) ->
          match Obs.Json.member "pids" entry with
          | Obs.Json.List pids ->
              List.map (function
                | Obs.Json.Int p -> p
                | _ -> Alcotest.fail "non-int pid in workers section")
                pids
          | _ -> Alcotest.fail "workers entry without pids")
        entries
  | _ -> Alcotest.fail "no workers section in pool-run metrics"

let test_pool_stable_pids () =
  if not Datacutter.Proc_runtime.available then ()
  else begin
    Obs.Trace.enable ();
    let policy =
      { Supervisor.default_policy with Supervisor.max_retries = 1 }
    in
    match Runtime.pool_create ~workers:6 () with
    | Error e ->
        Alcotest.failf "pool_create: %a" Supervisor.pp_run_error e
    | Ok pool ->
        let initial_pids = Runtime.pool_pids pool in
        Alcotest.(check int) "all workers parked" 6 (Runtime.pool_free pool);
        let n = 24 in
        let run_plan label ~mid_width ~mid expected =
          let topo, got = make_topo ~n ~mid_width ~mid () in
          match Runtime.run_result ~backend:Runtime.Proc ~policy ~pool topo with
          | Error e ->
              Alcotest.failf "%s: %a" label Supervisor.pp_run_error e
          | Ok m ->
              Alcotest.(check (list int)) (label ^ ": sink") expected (got ());
              let transport =
                Obs.Json.member "transport" (Runtime.metrics_to_json m)
              in
              (match Obs.Json.member "slot_bytes" transport with
              | Obs.Json.Int n ->
                  Alcotest.(check bool)
                    (label ^ ": slot_bytes > 0") true (n > 0)
              | _ -> Alcotest.failf "%s: no transport slot_bytes" label);
              (match Obs.Json.member "backstop_wakeups" transport with
              | Obs.Json.Int n ->
                  Alcotest.(check bool) (label ^ ": backstop_wakeups >= 0") true
                    (n >= 0)
              | _ -> Alcotest.failf "%s: no transport backstop_wakeups" label);
              Alcotest.(check int)
                (label ^ ": workers returned")
                6 (Runtime.pool_free pool);
              pids_of_metrics m
        in
        (* three distinct plans — different filters, different widths —
           through the same pool *)
        let all = List.init n Fun.id in
        let p1 =
          run_plan "plan1 passthrough" ~mid_width:1 ~mid:passthrough_mid all
        in
        let p2 =
          run_plan "plan2 +100" ~mid_width:1 ~mid:plus100_mid
            (List.map (fun i -> i + 100) all)
        in
        let p3 =
          run_plan "plan3 wide" ~mid_width:2 ~mid:passthrough_mid all
        in
        (* pid stability: every worker any plan ran on was forked at
           pool creation — zero mid-sequence forks *)
        List.iter
          (fun (label, pids) ->
            Alcotest.(check bool)
              (label ^ ": ran on pool pids only")
              true
              (List.for_all (fun p -> List.mem p initial_pids) pids);
            Alcotest.(check bool) (label ^ ": used workers") true (pids <> []))
          [ ("plan1", p1); ("plan2", p2); ("plan3", p3) ];
        (* reuse actually happens across plans *)
        Alcotest.(check bool) "plans share workers" true
          (List.exists (fun p -> List.mem p p1) (p2 @ p3));
        Runtime.pool_shutdown pool;
        Alcotest.(check int) "shutdown empties pool" 0 (Runtime.pool_free pool)
  end

(* --- QCheck: arbitrary frames round-trip vs the Wire codec ------------ *)

let buffer ?(packet = 7) s = Filter.make_buffer ~packet (Bytes.of_string s)

let item_equal a b =
  match (a, b) with
  | Engine.Marker, Engine.Marker -> true
  | Engine.Data x, Engine.Data y | Engine.Final x, Engine.Final y ->
      x.Filter.packet = y.Filter.packet
      && Bytes.equal x.Filter.data y.Filter.data
  | _ -> false

(* Payload sizes straddle the 512-byte slot boundary on purpose: both
   the in-ring and the overflow path must deliver Wire-equal frames. *)
let qcheck_roundtrip =
  QCheck.Test.make ~name:"shm delivers Wire-equal frames" ~count:150
    QCheck.(
      pair (string_of_size Gen.(0 -- 2000)) (small_list (string_of_size Gen.(0 -- 600))))
    (fun (s, batch) ->
      let a, b = Shm.pair ~slots:8 ~slot_bytes:512 () in
      let sent =
        [
          Wire.Crashed s;
          Wire.Batch (List.map (fun x -> Engine.Data (buffer x)) batch);
          Wire.Out (Some (Engine.Final (buffer s)));
        ]
      in
      let ok =
        List.for_all
          (fun m ->
            Shm.send a m;
            match (m, Shm.recv b) with
            | Wire.Crashed x, Some (Wire.Crashed y) -> String.equal x y
            | Wire.Batch xs, Some (Wire.Batch ys) ->
                List.length xs = List.length ys
                && List.for_all2 item_equal xs ys
            | Wire.Out (Some x), Some (Wire.Out (Some y)) -> item_equal x y
            | _ -> false)
          sent
      in
      Shm.close a;
      Shm.close b;
      ok)

(* The in-ring path against the Bytes codec: with slots large enough
   that nothing overflows, every message is encoded directly into a
   ring slot by [send] and decoded in place by [recv]; the decoded
   message must be structurally equal both to the original and to what
   the plain Bytes codec ([Wire.encode]/[Wire.decode]) round-trips —
   the two paths must describe the same wire language. *)
let msg_equal a b =
  match (a, b) with
  | Wire.Crashed x, Wire.Crashed y -> String.equal x y
  | Wire.Done, Wire.Done -> true
  | Wire.Item x, Wire.Item y -> item_equal x y
  | Wire.Batch xs, Wire.Batch ys ->
      List.length xs = List.length ys && List.for_all2 item_equal xs ys
  | Wire.Out (Some x), Wire.Out (Some y) -> item_equal x y
  | Wire.Out None, Wire.Out None -> true
  | _ -> false

let qcheck_inring_vs_bytes =
  QCheck.Test.make ~name:"in-ring send/recv matches the Bytes codec"
    ~count:150
    QCheck.(
      pair
        (string_of_size Gen.(0 -- 400))
        (small_list (string_of_size Gen.(0 -- 100))))
    (fun (s, batch) ->
      let a, b = Shm.pair ~slots:8 ~slot_bytes:65536 () in
      let msgs =
        [
          Wire.Crashed s;
          Wire.Item (Engine.Data (buffer s));
          Wire.Batch (List.map (fun x -> Engine.Data (buffer x)) batch);
          Wire.Out (Some (Engine.Final (buffer s)));
          Wire.Done;
        ]
      in
      let ok =
        List.for_all
          (fun m ->
            Shm.send a m;
            match Shm.recv b with
            | None -> false
            | Some got ->
                let via_bytes, _ = Wire.decode (Wire.encode m) ~pos:0 in
                msg_equal m got && msg_equal m via_bytes)
          msgs
      in
      let in_ring =
        (Shm.stats a).Shm.overflow_frames = 0
        && (Shm.stats b).Shm.overflow_frames = 0
      in
      Shm.close a;
      Shm.close b;
      ok && in_ring)

let () =
  Alcotest.run "shm"
    [
      ( "ring",
        [
          Alcotest.test_case "wrap-around" `Quick test_wraparound;
          Alcotest.test_case "full/empty boundary" `Quick
            test_full_empty_boundary;
          Alcotest.test_case "overflow frames stay in order" `Quick
            test_overflow_in_order;
        ] );
      ( "death",
        [ Alcotest.test_case "SIGKILLed peer" `Quick test_sigkill_peer ] );
      ( "pool",
        [
          Alcotest.test_case "unmappable rings fail cleanly" `Quick
            test_pool_no_rings;
          Alcotest.test_case "three plans on stable pids" `Quick
            test_pool_stable_pids;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_inring_vs_bytes;
        ] );
    ]
