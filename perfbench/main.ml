(* The repository benchmark: one closed-loop client per workload.

   The client submits its next job only after the previous one has
   returned and passed its oracle.  Every layer is measured from
   outside, by timing the benchmark's own calls into public functions
   and reading the counters those calls already return.  See README.md
   for the workloads, the metrics and how to read the trace. *)

open Core
module R = Datacutter.Runtime
module E = Datacutter.Engine
module Sup = Datacutter.Supervisor
module J = Obs.Json
module T = Obs.Trace

let clock = Obs.Clock.elapsed_s
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : Mix.size;
  corrupt_every : int;  (** perturb every k-th sink result (self-check) *)
}

let usage =
  "usage: main.exe --workload apps-par|apps-proc|stream-proc --seed N \
   --seconds S --trace 0|1 [--size full|tiny] [--corrupt-every K]"

let parse_args argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: r -> go { o with workload = v } r
    | "--seed" :: v :: r -> go { o with seed = int_of_string v } r
    | "--seconds" :: v :: r -> go { o with seconds = float_of_string v } r
    | "--trace" :: "0" :: r -> go { o with trace = false } r
    | "--trace" :: "1" :: r -> go { o with trace = true } r
    | "--size" :: "full" :: r -> go { o with size = Mix.Full } r
    | "--size" :: "tiny" :: r -> go { o with size = Mix.Tiny } r
    | "--corrupt-every" :: v :: r ->
        go { o with corrupt_every = int_of_string v } r
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  let o =
    go
      {
        workload = "";
        seed = 1;
        seconds = 10.0;
        trace = false;
        size = Mix.Full;
        corrupt_every = 0;
      }
      (List.tl (Array.to_list argv))
  in
  if o.seconds <= 0.0 then failwith "--seconds must be positive";
  o

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type workload = { wname : string; backend : R.backend; stream : bool }

let workloads =
  [
    { wname = "apps-par"; backend = R.Par; stream = false };
    { wname = "apps-proc"; backend = R.Proc; stream = false };
    { wname = "stream-proc"; backend = R.Proc; stream = true };
  ]

type env = { programs : Mix.program list; pool : R.pool option }

(* Workers a pool needs for one plan: one per source copy, and per
   inner copy one plus the supervisor's pre-forked restart spares. *)
let pool_workers widths =
  let spares = Sup.default_policy.Sup.max_retries in
  let n = Array.length widths in
  let w = ref widths.(0) in
  for s = 1 to n - 2 do
    w := !w + (widths.(s) * (1 + spares))
  done;
  !w

(* ------------------------------------------------------------------ *)
(* Spans recorded from the benchmark's side of each call                *)
(* ------------------------------------------------------------------ *)

(* Every span carries its own id, its parent's id (0 at a root) and the
   id of the job it belongs to (0 outside jobs), so a viewer or the
   self-check can rebuild the tree and group a job's spans. *)
module Spans = struct
  let tid = 999
  let next_id = ref 0
  let parent = ref 0
  let job = ref 0

  let in_job id f =
    let saved = !job in
    job := id;
    Fun.protect ~finally:(fun () -> job := saved) f

  let span ?(args = []) name f =
    if not (T.is_enabled ()) then f ()
    else begin
      incr next_id;
      let id = !next_id and up = !parent in
      parent := id;
      let t0 = clock () in
      Fun.protect
        ~finally:(fun () ->
          parent := up;
          T.emit
            (T.Span
               {
                 name;
                 cat = "bench";
                 ts = t0;
                 dur = clock () -. t0;
                 tid;
                 args =
                   ("job", T.Aint !job) :: ("id", T.Aint id)
                   :: ("parent", T.Aint up) :: args;
               }))
        f
    end
end

(* [f ()] and its wall seconds, inside a span named [name]. *)
let timed name f =
  Spans.span name (fun () ->
      let t0 = clock () in
      let r = f () in
      (r, clock () -. t0))

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

let compile_mix inputs =
  List.map
    (fun (name, app) ->
      let c =
        Spans.span "compile" ~args:[ ("program", T.Astr name) ] (fun () ->
            Apps.Harness.compile ~strategy:Compile.Decomp
              ~widths:Mix.apps_widths app)
      in
      Mix.compiled_program (name, app, c))
    (Mix.app_descriptors inputs)

(* One set-up: compile the mix (apps) and create the proc pool.  It
   ends where the first job would start; oracles are not part of it. *)
let setup_once wl inputs =
  let programs =
    if wl.stream then [ Mix.stream_program inputs.Mix.stream ]
    else compile_mix inputs
  in
  let widths = if wl.stream then Mix.stream_widths else Mix.apps_widths in
  let pool =
    match wl.backend with
    | R.Proc -> (
        match
          R.pool_create ~workers:(pool_workers widths)
            ~frame_bytes:(Mix.frame_bytes programs) ()
        with
        | Ok p -> Some p
        | Error e -> Fmt.failwith "pool_create: %a" Sup.pp_run_error e)
    | _ -> None
  in
  { programs; pool }

let shutdown env = Option.iter R.pool_shutdown env.pool

(* Set up [reps] times, all before the first job: a pool can only fork
   while this process has spawned no domain yet.  Returns the last
   environment and every set-up time. *)
let setup wl inputs ~reps =
  let rec go k last times =
    if k = 0 then (Option.get last, List.rev times)
    else begin
      Option.iter shutdown last;
      let env, dt = timed "setup" (fun () -> setup_once wl inputs) in
      go (k - 1) (Some env) (dt :: times)
    end
  in
  go reps None []

(* ------------------------------------------------------------------ *)
(* Jobs                                                                 *)
(* ------------------------------------------------------------------ *)

type job = {
  prog : string;
  ok : bool;
  error : string option;
  corrupted : bool;
  job_s : float;  (** build_topology + run_result + reading the sink *)
  build_s : float;
  run_s : float;
  check_s : float;
  sink_items : int;
  ties : int;
  metrics : E.metrics option;
  compiled : Compile.t option;
  minor_words : float;
  promoted_words : float;
  major_collections : float;
}

let job_counter = ref 0

let sink_items (m : E.metrics) =
  Array.fold_left ( + ) 0 m.E.items.(Array.length m.E.items - 1)

let run_job ~wl ~env ~opts ((p : Mix.program), (oracle : Mix.oracle)) =
  incr job_counter;
  let id = !job_counter in
  let corrupted = opts.corrupt_every > 0 && id mod opts.corrupt_every = 0 in
  let free_before = Option.map R.pool_free env.pool in
  Spans.in_job id @@ fun () ->
  Spans.span "job" ~args:[ ("program", T.Astr p.Mix.name) ] @@ fun () ->
  let g0 = Gc.quick_stat () in
  let t0 = clock () in
  let outcome =
    try
      let (topo, read), build_s = timed "build_topology" p.Mix.build in
      let res, run_s =
        timed "run_result" (fun () ->
            R.run_result ~backend:wl.backend ?pool:env.pool topo)
      in
      match res with
      | Error e -> Error (Fmt.str "%a" Sup.pp_run_error e)
      | Ok m ->
          let sink, _ = timed "read_sink" read in
          Ok (m, sink, build_s, run_s)
    with e -> Error (Printexc.to_string e)
  in
  let job_s = clock () -. t0 in
  let g1 = Gc.quick_stat () in
  let base =
    {
      prog = p.Mix.name;
      ok = false;
      error = None;
      corrupted;
      job_s;
      build_s = 0.0;
      run_s = 0.0;
      check_s = 0.0;
      sink_items = 0;
      ties = 0;
      metrics = None;
      compiled = p.Mix.compiled;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_collections =
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
    }
  in
  let shrunk () =
    match (free_before, env.pool) with
    | Some before, Some pool when R.pool_free pool < before ->
        Some (Printf.sprintf "pool shrank from %d to %d free workers" before
                (R.pool_free pool))
    | _ -> None
  in
  match outcome with
  | Error e -> { base with error = Some e }
  | Ok (m, sink, build_s, run_s) ->
      let verdict, check_s =
        timed "check" (fun () ->
            if sink_items m <> p.Mix.items then
              Error
                (Printf.sprintf "sink received %d items, expected %d"
                   (sink_items m) p.Mix.items)
            else
              try oracle ~corrupt:corrupted sink
              with e -> Error (Printexc.to_string e))
      in
      let base =
        {
          base with
          build_s;
          run_s;
          check_s;
          sink_items = sink_items m;
          metrics = Some m;
        }
      in
      match (verdict, shrunk ()) with
      | Ok ties, None -> { base with ok = true; ties }
      | Error e, _ | Ok _, Some e -> { base with error = Some e }

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Closed loop: rounds over the programs in a seeded order, until the
   deadline passes or [max_jobs] jobs have run. *)
let run_jobs ~wl ~env ~opts ~rng ~progs ~deadline ~max_jobs =
  let jobs = ref [] and n = ref 0 in
  let more () = clock () < deadline && !n < max_jobs in
  while more () do
    Array.iter
      (fun p ->
        if more () then begin
          let j = run_job ~wl ~env ~opts p in
          (match j.error with
          | Some e -> log "job %d (%s) failed: %s" !job_counter j.prog e
          | None -> ());
          jobs := j :: !jobs;
          incr n
        end)
      (shuffle rng progs)
  done;
  List.rev !jobs

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let ok_jobs jobs = List.filter (fun j -> j.ok) jobs

let program_names = [ "zbuffer"; "apix"; "knn"; "vmscope"; "stream" ]

let per_program jobs =
  List.filter_map
    (fun name ->
      match List.filter (fun j -> j.prog = name) jobs with
      | [] -> None
      | js -> Some (name, js))
    program_names

let median_job_s jobs =
  List.map
    (fun (name, js) -> (name, Stats.median (List.map (fun j -> j.job_s) js)))
    (per_program (ok_jobs jobs))

(* Sink items of one job of each program over the sum of their median
   job times: throughput at typical job times, so a few jobs slowed by
   host interference do not swing it. *)
let items_per_s jobs =
  let meds = median_job_s jobs in
  let items (name, _) =
    float_of_int (List.find (fun j -> j.ok && j.prog = name) jobs).sink_items
  in
  Stats.sum (List.map items meds) /. Stats.sum (List.map snd meds)

let vmhwm_kb pid =
  try
    let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec find () =
      let line = input_line ic in
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] ->
          float_of_string
            (String.trim (List.hd (String.split_on_char 'k' (String.trim v))))
      | _ -> find ()
    in
    find ()
  with _ -> 0.0

(* Peak resident set of this process plus every pool worker. *)
let rss_peak_mb env =
  let pids =
    match env.pool with
    | Some p -> List.map string_of_int (R.pool_pids p)
    | None -> []
  in
  Stats.sum (List.map vmhwm_kb ("self" :: pids)) /. 1024.0

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let end_to_end ~setup_times ~jobs ~rss =
  let meds = median_job_s jobs in
  let tail =
    List.map
      (fun j -> j.job_s /. List.assoc j.prog meds)
      (ok_jobs jobs)
  in
  [
    metric "items_per_s" "1/s" (items_per_s jobs);
    metric "job_s.p50" "s" (Stats.geomean (List.map snd meds));
    metric "job_tail.p90" "ratio" (Stats.quantile 0.9 tail);
    metric "rss_peak_mb" "MB" rss;
    metric "setup_s" "s" (Stats.median setup_times);
  ]

let with_metrics jobs =
  List.filter_map
    (fun j -> Option.map (fun m -> (j, m)) j.metrics)
    (ok_jobs jobs)

let med_of jobs f = Stats.median (List.map f (with_metrics jobs))

let stage_sum (a : float array array) s =
  if s < Array.length a then Array.fold_left ( +. ) 0.0 a.(s) else 0.0

let stage_isum (a : int array array) s =
  if s < Array.length a then float_of_int (Array.fold_left ( + ) 0 a.(s))
  else 0.0

let transport_field (m : E.metrics) key =
  match List.assoc_opt "transport" m.E.extra with
  | None -> 0.0
  | Some t -> (
      match J.member_opt key t with Some v -> J.to_float v | None -> 0.0)

(* Payload bytes the proc wire carries per job: every source and inner
   output leaves a worker, and every inner stage's input enters one
   (the sink runs in the parent).  Frame headers are not counted; par
   has no wire. *)
let wire_bytes (m : E.metrics) =
  match m.E.backend with
  | R.Proc ->
      let n = Array.length m.E.bytes_out in
      let out = ref 0.0 in
      for s = 0 to n - 2 do
        out := !out +. stage_sum m.E.bytes_out s;
        if s >= 1 then out := !out +. stage_sum m.E.bytes_out (s - 1)
      done;
      !out
  | _ -> 0.0

let bottleneck_util (m : E.metrics) =
  let util = ref 0.0 in
  Array.iteri
    (fun s busy ->
      let width = float_of_int (Array.length busy) in
      if m.E.elapsed_s > 0.0 then
        util :=
          Float.max !util
            (stage_sum m.E.busy_s s /. (width *. m.E.elapsed_s)))
    m.E.busy_s;
  !util

let occupancy_mean (m : E.metrics) =
  match m.E.queue_occupancy with
  | None -> 0.0
  | Some hs ->
      let sum = ref 0.0 and n = ref 0 in
      Array.iter
        (Array.iter (fun h ->
             sum := !sum +. Obs.Hist.sum h;
             n := !n + Obs.Hist.count h))
        hs;
      if !n = 0 then 0.0 else !sum /. float_of_int !n

let reports jobs =
  List.filter_map
    (fun (j, m) ->
      Option.map
        (fun (c : Compile.t) ->
          Report.make ~pipeline:c.Compile.pipeline
            ~profile:c.Compile.profile.Profile.profile
            ~assignment:c.Compile.assignment ~metrics:m)
        j.compiled)
    (with_metrics jobs)

(* Layer metrics that come from counters the calls return; taken over
   the untraced jobs of a traced run. *)
let counter_layers jobs =
  let med f = med_of jobs f in
  let per_copy f s = med (fun (_, m) -> stage_sum (f m) s) in
  let stage s =
    let p = Printf.sprintf "datacutter.s%d." s in
    [
      metric (p ^ "busy_s") "s" (per_copy (fun m -> m.E.busy_s) s);
      metric (p ^ "stall_pop_s") "s" (per_copy (fun m -> m.E.stall_pop_s) s);
      metric (p ^ "stall_push_s") "s" (per_copy (fun m -> m.E.stall_push_s) s);
      metric (p ^ "items") "count" (med (fun (_, m) -> stage_isum m.E.items s));
    ]
  in
  let transport key unit_ =
    metric ("datacutter.transport." ^ key) unit_
      (med (fun (_, m) -> transport_field m key))
  in
  let reps = reports jobs in
  let err s =
    metric
      (Printf.sprintf "core.costmodel.err_pct.s%d" s)
      "pct"
      (Stats.median
         (List.filter_map
            (fun (r : Report.t) ->
              if s < Array.length r.Report.rows then
                r.Report.rows.(s).Report.sr_error_pct
              else None)
            reps))
  in
  let recovery f =
    Stats.sum
      (List.map
         (fun (_, m) -> float_of_int (f m.E.recovery))
         (with_metrics jobs))
  in
  let ok = ok_jobs jobs in
  let over_ok f = Stats.median (List.map f ok) in
  let iso = List.filter (fun j -> j.prog = "zbuffer" || j.prog = "apix") ok in
  let meds = median_job_s jobs in
  List.concat
    [
      List.concat_map stage [ 0; 1; 2 ];
      [
        metric "datacutter.s0.bytes_out" "bytes"
          (per_copy (fun m -> m.E.bytes_out) 0);
        metric "datacutter.s1.bytes_out" "bytes"
          (per_copy (fun m -> m.E.bytes_out) 1);
        metric "datacutter.bottleneck_util" "ratio"
          (med (fun (_, m) -> bottleneck_util m));
        metric "datacutter.run_result_s" "s" (med (fun (j, _) -> j.run_s));
        metric "datacutter.unattributed_s" "s"
          (med (fun (j, m) -> j.run_s -. m.E.elapsed_s));
        metric "datacutter.queue_occupancy.mean" "items"
          (med (fun (_, m) -> occupancy_mean m));
        transport "credit_stall_s" "s";
        transport "overflow_frames" "count";
        transport "ring_occupancy_hw" "slots";
        transport "inflight" "frames";
        metric "datacutter.wire.bytes" "bytes"
          (med (fun (_, m) -> wire_bytes m));
        metric "datacutter.supervisor.retries" "count"
          (recovery (fun r -> r.Sup.retries));
        metric "datacutter.supervisor.restarts" "count"
          (recovery (fun r -> r.Sup.crashes));
        metric "gc.minor_words" "words" (over_ok (fun j -> j.minor_words));
        metric "gc.promoted_words" "words"
          (over_ok (fun j -> j.promoted_words));
        metric "gc.major_collections" "count"
          (over_ok (fun j -> j.major_collections));
        metric "core.codegen.build_topology_s" "s"
          (Stats.median
             (List.filter_map
                (fun j -> Option.map (fun _ -> j.build_s) j.compiled)
                ok));
        err 0;
        err 1;
        err 2;
        metric "core.costmodel.bottleneck_agree" "ratio"
          (Stats.mean
             (List.map
                (fun (r : Report.t) -> if r.Report.agree then 1.0 else 0.0)
                reps));
        metric "apps.tie_pixels" "pixels/job"
          (Stats.mean (List.map (fun j -> float_of_int j.ties) iso));
        metric "bench.check_s" "s" (over_ok (fun j -> j.check_s));
      ];
      List.map
        (fun name ->
          metric
            (Printf.sprintf "apps.%s.job_s.p50" name)
            "s"
            (Option.value ~default:0.0 (List.assoc_opt name meds)))
        program_names;
    ]

(* Seconds per compiler phase summed over the mix, from the spans the
   compiler already records. *)
let compiler_phase_s events =
  let tbl = Hashtbl.create 8 in
  List.iter
    (function
      | T.Span { name; cat = "compiler"; dur; _ } ->
          Hashtbl.replace tbl name
            (dur +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))
      | _ -> ())
    events;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

(* The simulator's makespan for one job of each compiled program over
   its measured median wall time, as a geometric mean. *)
let sim_drift env ~medians =
  Stats.geomean
    (List.filter_map
       (fun (p : Mix.program) ->
         match (p.Mix.compiled, List.assoc_opt p.Mix.name medians) with
         | Some _, Some wall -> (
             let topo, _ = p.Mix.build () in
             match R.run_result ~backend:R.Sim topo with
             | Ok m -> Some (m.E.elapsed_s /. wall)
             | Error e -> Fmt.failwith "sim run: %a" Sup.pp_run_error e)
         | _ -> None)
       env.programs)

(* ------------------------------------------------------------------ *)
(* Run record                                                           *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let git_commit () =
  try
    let rd, wr = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process "git"
        [| "git"; "rev-parse"; "HEAD" |]
        Unix.stdin wr null
    in
    Unix.close wr;
    Unix.close null;
    let ic = Unix.in_channel_of_descr rd in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

(* Digest of the sources the benchmark builds, so runs from checkouts
   that are not git repositories still name the code they measured. *)
let source_digest () =
  let rec walk dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then walk p
           else if
             Filename.check_suffix f ".ml"
             || Filename.check_suffix f ".mli"
             || f = "dune"
           then [ p ]
           else [])
  in
  let files = List.concat_map walk [ "lib"; "perfbench" ] in
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          (List.concat_map (fun p -> [ p; read_file p ]) files)))

let cpu_model () =
  try
    read_file "/proc/cpuinfo" |> String.split_on_char '\n'
    |> List.find (fun l ->
           String.length l > 10 && String.sub l 0 10 = "model name")
    |> fun l -> String.trim (List.nth (String.split_on_char ':' l) 1)
  with _ -> "unknown"

(* Steal and total jiffies of the whole host from /proc/stat: the share
   of time a virtual machine's CPUs were taken by other guests, which
   slows every workload and is recorded to explain outlying runs. *)
let cpu_ticks () =
  try
    let first = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
    match String.split_on_char ' ' first with
    | "cpu" :: rest ->
        let v = List.filter_map int_of_string_opt rest in
        (float_of_int (List.nth v 7), float_of_int (List.fold_left ( + ) 0 v))
    | _ -> (0.0, 0.0)
  with _ -> (0.0, 0.0)

let steal_share (s0, t0) (s1, t1) =
  if t1 > t0 then (s1 -. s0) /. (t1 -. t0) else 0.0

let utc_date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let metrics_json ms =
  J.Obj
    (List.map
       (fun x ->
         ( x.name,
           J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit_) ] ))
       ms)

let jobs_json jobs =
  J.Obj
    (List.map
       (fun (name, js) ->
         let failed = List.length (List.filter (fun j -> not j.ok) js) in
         ( name,
           J.Obj
             [
               ("attempted", J.Int (List.length js));
               ("failed", J.Int failed);
               ("completed", J.Int (List.length js - failed));
             ] ))
       (per_program jobs))

let record ~opts ~wl ~jobs ~timed ~setup_times ~steal ~metrics ~trace_file =
  J.Obj
    [
      ( "host",
        J.Obj
          [
            ("cores", J.Int (Domain.recommended_domain_count ()));
            ("ocaml", J.Str Sys.ocaml_version);
            ("cpu", J.Str (cpu_model ()));
            ("hostname", J.Str (Unix.gethostname ()));
          ] );
      ("steal_share", J.Float steal);
      ("commit", J.Str (git_commit ()));
      ("source_digest", J.Str (source_digest ()));
      ("date", J.Str (utc_date ()));
      ("workload", J.Str wl.wname);
      ("backend", J.Str (R.backend_name wl.backend));
      ("seed", J.Int opts.seed);
      ("seconds", J.Float opts.seconds);
      ("trace", J.Bool opts.trace);
      ( "size",
        J.Str (match opts.size with Mix.Full -> "full" | Mix.Tiny -> "tiny") );
      ("jobs", jobs_json jobs);
      ("timed_jobs", J.Int (List.length timed));
      ( "corrupted",
        J.Int (List.length (List.filter (fun j -> j.corrupted) jobs)) );
      ("setup_s", J.List (List.map (fun t -> J.Float t) setup_times));
      ( "job_s",
        J.List
          (List.map
             (fun j -> J.List [ J.Str j.prog; J.Float j.job_s; J.Bool j.ok ])
             timed) );
      ( "errors",
        J.List
          (List.filter_map
             (fun j -> Option.map (fun e -> J.Str e) j.error)
             jobs) );
      ("trace_file", match trace_file with Some f -> J.Str f | None -> J.Null);
      ("metrics", metrics_json metrics);
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let setup_reps = 7

(* Run records and traces, inside the checkout. *)
let out_dir = "perfbench/out"

(* Jobs run with tracing on in a traced run: enough to show every span
   kind without recording an unbounded trace. *)
let traced_jobs wl = if wl.stream then 2 else 8

let run opts wl =
  let inputs = Mix.inputs ~size:opts.size ~seed:opts.seed in
  let env, setup_times = setup wl inputs ~reps:setup_reps in
  Fun.protect ~finally:(fun () -> shutdown env) @@ fun () ->
  let progs =
    Array.of_list (List.map (fun p -> (p, Mix.oracle inputs p)) env.programs)
  in
  let rng = Random.State.make [| opts.seed; 0x0de7 |] in
  let jobs ~deadline ~max_jobs =
    run_jobs ~wl ~env ~opts ~rng ~progs ~deadline ~max_jobs
  in
  (* One warm-up round: checked and counted, not timed. *)
  let warm = jobs ~deadline:infinity ~max_jobs:(Array.length progs) in
  let window = if opts.trace then opts.seconds /. 2.0 else opts.seconds in
  let ticks0 = cpu_ticks () in
  let timed_jobs = jobs ~deadline:(clock () +. window) ~max_jobs:max_int in
  let steal = steal_share ticks0 (cpu_ticks ()) in
  let rss = rss_peak_mb env in
  let traced, trace_file, layer_extra =
    if not opts.trace then ([], None, [])
    else begin
      T.enable ();
      T.set_thread_name ~tid:Spans.tid "bench client";
      let phases, compile_s, front_end_s =
        if wl.stream then ((fun _ -> 0.0), 0.0, 0.0)
        else begin
          let _, compile_s =
            timed "compile_mix" (fun () -> compile_mix inputs)
          in
          let phase = compiler_phase_s (T.events ()) in
          (phase, compile_s, phase "front_end")
        end
      in
      let reference_s =
        Stats.sum
          (List.filter_map
             (fun (p : Mix.program) ->
               Option.map
                 (fun c ->
                   let run () = Compile.run_reference c in
                   snd (timed "run_reference" run))
                 p.Mix.compiled)
             env.programs)
      in
      let traced = jobs ~deadline:infinity ~max_jobs:(traced_jobs wl) in
      T.disable ();
      let file =
        Filename.concat out_dir
          (Printf.sprintf "trace-%s-seed%d.json" wl.wname opts.seed)
      in
      J.mkdir_p out_dir;
      Obs.Chrome_trace.write_file ~process_name:"perfbench" file;
      T.clear ();
      let drift =
        if wl.stream then 0.0
        else sim_drift env ~medians:(median_job_s timed_jobs)
      in
      let overhead =
        let t = items_per_s traced in
        if t > 0.0 then items_per_s timed_jobs /. t else 0.0
      in
      ( traced,
        Some file,
        [
          metric "lang.front_end_s" "s" front_end_s;
          metric "lang.interp.reference_s" "s" reference_s;
          metric "core.compile_s" "s" compile_s;
          metric "core.sim_drift" "ratio" drift;
          metric "obs.trace_overhead" "ratio" overhead;
        ]
        @ List.map
            (fun ph ->
              metric (Printf.sprintf "core.compile.%s_s" ph) "s" (phases ph))
            [
              "boundaries";
              "reqcomm";
              "alias_check";
              "profile";
              "decompose";
              "codegen";
            ] )
    end
  in
  let all = warm @ timed_jobs @ traced in
  let metrics =
    if opts.trace then layer_extra @ counter_layers timed_jobs
    else end_to_end ~setup_times ~jobs:timed_jobs ~rss
  in
  let failed = List.length (List.filter (fun j -> not j.ok) all) in
  let rec_file =
    Filename.concat out_dir
      (Printf.sprintf "run-%s-seed%d-trace%d.json" wl.wname opts.seed
         (if opts.trace then 1 else 0))
  in
  J.write_file rec_file
    (record ~opts ~wl ~jobs:all ~timed:timed_jobs ~setup_times ~steal ~metrics
       ~trace_file);
  if ok_jobs timed_jobs = [] then
    failwith "no job completed in the measured window";
  J.Obj
    [
      ("correct", J.Bool (failed = 0));
      ("attempted", J.Int (List.length all));
      ("failed", J.Int failed);
      ("metrics", metrics_json metrics);
    ]

let () =
  match parse_args Sys.argv with
  | exception (Failure e | Invalid_argument e) ->
      prerr_endline e;
      prerr_endline usage;
      exit 2
  | opts -> (
      match List.find_opt (fun w -> w.wname = opts.workload) workloads with
      | None ->
          Printf.eprintf "unknown workload %S\n%s\n" opts.workload usage;
          exit 2
      | Some wl -> (
          match run opts wl with
          | result -> print_endline (J.to_string result)
          | exception e ->
              Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
              exit 1))
