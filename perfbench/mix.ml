(* The benchmark's programs and their oracles.

   A program builds a fresh topology for every job and hands back the
   sink's result; an oracle, computed once per seed outside any timed
   section, decides whether that result is correct. *)

open Lang
open Core
module V = Value
module H = Apps.Harness
module Iso = Apps.Isosurface
module Knn = Apps.Knn
module Vm = Apps.Vmscope
module Sb = Apps.Streambench

type size = Full | Tiny

(* Inputs of one workload seed.  The seed picks the dataset seeds, the
   knn query point and the vmscope query window; the programs only see
   these generated configurations. *)
type inputs = {
  iso : Iso.config;
  knn : Knn.config;
  vm : Vm.config;
  stream : Sb.config;
}

let inputs ~size ~seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let dataset_seed () = 1 + Random.State.int rng 1_000_000 in
  (* The knn program receives its query in thousandths
     ([Knn.runtime_defs]), so draw a point on that grid. *)
  let rec coord () =
    let n = 100 + Random.State.int rng 800 in
    let q = float_of_int n /. 1000.0 in
    if int_of_float (q *. 1000.0) = n then q else coord ()
  in
  let iso_base, knn_base, vm_base, stream =
    match size with
    | Full -> (Iso.small, Knn.base_config, Vm.large_query, Sb.default)
    | Tiny -> (Iso.tiny, Knn.tiny, Vm.tiny, Sb.tiny)
  in
  let iso = { iso_base with Iso.seed = dataset_seed () } in
  let knn =
    let q = (coord (), coord (), coord ()) in
    { knn_base with Knn.seed = dataset_seed (); query = q }
  in
  let vm =
    (* Shift the window, keeping its size, anywhere inside the slide. *)
    let w = vm_base.Vm.qx1 - vm_base.Vm.qx0
    and h = vm_base.Vm.qy1 - vm_base.Vm.qy0 in
    let x0 = Random.State.int rng (vm_base.Vm.image_w - w + 1)
    and y0 = Random.State.int rng (vm_base.Vm.image_h - h + 1) in
    {
      vm_base with
      Vm.seed = dataset_seed ();
      qx0 = x0;
      qy0 = y0;
      qx1 = x0 + w;
      qy1 = y0 + h;
    }
  in
  { iso; knn; vm; stream }

let apps_widths = [| 2; 2; 1 |]
let stream_widths = [| 1; 1; 1 |]

(* What a sink hands back: the merged reduction globals of a compiled
   program, or streambench's (item count, byte checksum). *)
type sink = Globals of (string * V.t) list | Counted of int * int

type program = {
  name : string;
  items : int;  (** source items that must reach the sink per job *)
  compiled : Compile.t option;  (** [None] for the native stream *)
  frame_bytes : int;  (** largest wire frame a job can emit at B = 1 *)
  build : unit -> Datacutter.Topology.t * (unit -> sink);
}

let app_descriptors (inp : inputs) =
  [
    ("zbuffer", H.iso_app ~name:"zbuffer" ~variant:`Zbuffer inp.iso);
    ("apix", H.iso_app ~name:"apix" ~variant:`Apix inp.iso);
    ("knn", H.knn_app inp.knn);
    ("vmscope", H.vmscope_app inp.vm);
  ]

let cluster = H.default_cluster

let compiled_program (name, (app : H.app), (c : Compile.t)) =
  let widths = apps_widths in
  let powers = H.node_powers cluster widths in
  let bandwidths = Array.make (Array.length widths - 1) cluster.H.bandwidth in
  {
    name;
    items = app.H.num_packets;
    compiled = Some c;
    frame_bytes = H.frame_plan c ~widths ~batch:1;
    build =
      (fun () ->
        let topo, result =
          Codegen.build_topology c.Compile.plan ~widths ~powers ~bandwidths
            ~latency:cluster.H.latency ()
        in
        (topo, fun () -> Globals (result ())));
  }

let stream_program (cfg : Sb.config) =
  let widths = stream_widths in
  let powers = H.node_powers cluster widths in
  let bandwidths = Array.make (Array.length widths - 1) cluster.H.bandwidth in
  {
    name = "stream";
    items = cfg.Sb.items;
    compiled = None;
    frame_bytes =
      Datacutter.Engine.plan_frame_bytes
        ~stage_batch:(Array.map (fun _ -> 1) widths)
        ~item_bytes:
          (Array.map (fun _ -> float_of_int cfg.Sb.item_bytes) widths);
    build =
      (fun () ->
        let topo, result =
          Sb.topology cfg ~widths ~powers ~bandwidths ()
        in
        (topo, fun () ->
          let n, sum = result () in
          Counted (n, sum)));
  }

(* The proc pool sizes its ring slots once, at fork time, for the
   largest frame any program of the workload can emit. *)
let frame_bytes programs =
  List.fold_left (fun acc p -> max acc p.frame_bytes) 0 programs

(* ------------------------------------------------------------------ *)
(* Oracles                                                              *)
(* ------------------------------------------------------------------ *)

(* [Ok ties] for a correct result, where [ties] counts pixels only the
   reversed reference accepts; [corrupt] perturbs the observed result
   first, so a self-check can prove a wrong answer is caught. *)
type oracle = corrupt:bool -> sink -> (int, string) result

(* The same program with packet p reading packet n-1-p's cubes: the
   sequential reference then meets the fragments in reverse order, and
   an equal-depth tie resolves the other way (see [check_colours]). *)
let reversed (c : Compile.t) =
  let n = c.Compile.plan.Codegen.num_packets in
  let flip (name, (f : Interp.extern_fn)) =
    if name <> "read_cubes" then (name, f)
    else
      ( name,
        fun ctx args ->
          match args with
          | [ V.Vint p ] -> f ctx [ V.Vint (n - 1 - p) ]
          | _ -> f ctx args )
  in
  let externs = List.map flip c.Compile.plan.Codegen.externs in
  { c with Compile.plan = { c.Compile.plan with Codegen.externs } }

let globals = function
  | Globals g -> g
  | Counted _ -> failwith "expected reduction globals, got a stream count"

let bump_first a = if Array.length a > 0 then a.(0) <- a.(0) +. 1.0

(* ZBuffer.merge and APix.merge keep [this] on equal depth, so which
   fragment's colour survives a tie depends on merge order; a colour is
   accepted when either the forward or the reversed reference has it. *)
let check_colours ~fwd ~rev got =
  let ties = ref 0 and bad = ref None in
  Array.iteri
    (fun i c ->
      if !bad = None && not (Float.equal c fwd.(i)) then
        if Float.equal c rev.(i) then incr ties
        else bad := Some (Printf.sprintf "colour of pixel %d differs" i))
    got;
  match !bad with Some e -> Error e | None -> Ok !ties

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

let zbuffer_oracle c : oracle =
  let zb c =
    Iso.zbuffer_arrays (List.assoc "zfinal" (Compile.run_reference c))
  in
  let fwd_d, fwd_c = zb c and rev_d, rev_c = zb (reversed c) in
  if not (same_floats fwd_d rev_d) then
    failwith "zbuffer: forward and reversed references disagree on depth";
  fun ~corrupt sink ->
    let d, col = Iso.zbuffer_arrays (List.assoc "zfinal" (globals sink)) in
    if corrupt then bump_first col;
    if not (same_floats d fwd_d) then Error "depth differs from the reference"
    else if Array.length col <> Array.length fwd_c then
      Error "colour plane has the wrong size"
    else check_colours ~fwd:fwd_c ~rev:rev_c col

let apix_oracle c : oracle =
  let px c =
    Array.of_list
      (Iso.apix_pixels (List.assoc "afinal" (Compile.run_reference c)))
  in
  let fwd = px c and rev = px (reversed c) in
  let key (i, d, _) = (i, d) in
  let same_keys a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y ->
           let i, d = key x and j, e = key y in
           i = j && Float.equal d e)
         a b
  in
  if not (same_keys fwd rev) then
    failwith "apix: forward and reversed references disagree on pixels";
  let shades a = Array.map (fun (_, _, s) -> s) a in
  fun ~corrupt sink ->
    let got =
      Array.of_list (Iso.apix_pixels (List.assoc "afinal" (globals sink)))
    in
    let got_shades = shades got in
    if corrupt then bump_first got_shades;
    if not (same_keys got fwd) then
      Error "pixel set, order or depth differs from the reference"
    else check_colours ~fwd:(shades fwd) ~rev:(shades rev) got_shades

let knn_oracle cfg : oracle =
  let want = Knn.oracle cfg in
  fun ~corrupt sink ->
    let got = Knn.knn_result (List.assoc "result" (globals sink)) in
    let got = if corrupt then List.rev got else got in
    let same (d1, x1, y1, z1) (d2, x2, y2, z2) =
      Float.abs (d1 -. d2) <= 1e-12 && x1 = x2 && y1 = y2 && z1 = z2
    in
    if List.length got = List.length want && List.for_all2 same got want then
      Ok 0
    else
      let show l =
        String.concat " "
          (List.map
             (fun (d, x, y, z) -> Printf.sprintf "%h@(%h,%h,%h)" d x y z)
             l)
      in
      Error
        ("k nearest differ from the exact scan: " ^ show got ^ " vs "
       ^ show want)

let vmscope_oracle cfg : oracle =
  let wr, wg, wb = Vm.oracle cfg in
  fun ~corrupt sink ->
    let r, g, b = Vm.image_arrays (List.assoc "view" (globals sink)) in
    if corrupt then bump_first r;
    let close a w =
      Array.length a = Array.length w
      && Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-9) a w
    in
    if close r wr && close g wg && close b wb then Ok 0
    else Error "image differs from the direct computation"

let stream_oracle cfg : oracle =
  let want = Sb.expected cfg in
  fun ~corrupt sink ->
    match sink with
    | Counted (n, sum) ->
        let got = if corrupt then (n, sum + 1) else (n, sum) in
        if got = want then Ok 0
        else
          Error
            (Printf.sprintf "sink saw (%d, %d), expected (%d, %d)" (fst got)
               (snd got) (fst want) (snd want))
    | Globals _ -> Error "expected a stream count"

let oracle (inp : inputs) (p : program) : oracle =
  match (p.name, p.compiled) with
  | "zbuffer", Some c -> zbuffer_oracle c
  | "apix", Some c -> apix_oracle c
  | "knn", _ -> knn_oracle inp.knn
  | "vmscope", _ -> vmscope_oracle inp.vm
  | "stream", _ -> stream_oracle inp.stream
  | name, _ -> invalid_arg ("no oracle for " ^ name)
