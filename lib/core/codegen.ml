(* Filter code generation (§5).

   Given a decomposition (segment -> computing unit), builds DataCutter
   filters.  Each generated filter, per unit of work:
   - unpacks the values named by the boundary's ReqComm set from the
     input buffer (using the layout chosen by [Packing]),
   - executes its code segments, staged once per plan (Interp.stage),
   - packs the next boundary's ReqComm set into the output buffer.

   Reduction globals are persistent per-copy filter state; at finalize
   each copy ships its partial as an end-of-stream payload, intermediate
   filters that share the global merge it into their own partial, other
   filters forward it, and the sink (the viewing node, C_m) merges
   everything, so the authoritative result ends where the paper puts it.

   Marshalling costs are charged to the filter's operation counter: two
   memory operations per packed value, except contiguous field-wise
   columns that the filter only forwards, which cost a bulk copy — the
   §5 rationale for the field-wise layout. *)

open Lang
open Datacutter
module V = Value
module SS = Set.Make (String)

type plan = {
  prog : Ast.program;
  segments : Boundary.segment array;
  rc : Reqcomm.t;
  tyenv : Tyenv.t;
  assignment : Costmodel.assignment;
  m : int;
  (* cut.(u-1) for unit u in 1..m: index of the first segment assigned to
     a unit >= u; cut.(0) = 0 and a virtual cut.(m) = n+1 *)
  cuts : int array;
  (* layout of the stream entering unit u (u in 2..m) at cuts.(u-1) *)
  layouts : Packing.layout array; (* index u-1, entry 0 unused *)
  num_packets : int;
  externs : (string * Interp.extern_fn) list;
  runtime_defs : (string * int) list;
  (* the program and its segments, staged once and shared by every
     copy; each unit's first segment starts from its unpacked layout *)
  code : Interp.code;
  pipe : Interp.pipeline;
}

let segments_of_unit plan u =
  let out = ref [] in
  Array.iteri
    (fun i a -> if a = u then out := plan.segments.(i) :: !out)
    plan.assignment;
  List.rev !out

(* The variables a layout binds when unpacked: the names a unit's first
   segment starts with. *)
let layout_names (layout : Packing.layout) =
  List.sort_uniq compare
    (List.map
       (function
         | Packing.Escalar (v, _)
         | Packing.Eobj_field (v, _, _, _)
         | Packing.Eobj_any (v, _, _, _)
         | Packing.Earray (v, _, _)
         | Packing.Ecoll (v, _, _) ->
             v)
       layout)

let make_plan ?(layout_mode : Packing.mode = `Auto) (prog : Ast.program)
    (segments : Boundary.segment list)
    (rc : Reqcomm.t) ~(assignment : Costmodel.assignment) ~(m : int)
    ~(num_packets : int) ~(externs : (string * Interp.extern_fn) list)
    ~(runtime_defs : (string * int) list) : plan =
  let segments = Array.of_list segments in
  let n1 = Array.length segments in
  if Array.length assignment <> n1 then
    invalid_arg "make_plan: assignment/segment mismatch";
  let tyenv = Tyenv.of_segments prog (Array.to_list segments) in
  let cuts =
    Array.init m (fun u0 ->
        let u = u0 + 1 in
        let rec first i =
          if i >= n1 then n1 else if assignment.(i) >= u then i else first (i + 1)
        in
        first 0)
  in
  let filter_of_seg s = assignment.(s) in
  let layouts =
    Array.init m (fun u0 ->
        if u0 = 0 then []
        else
          let cut = cuts.(u0) in
          if cut >= n1 then [] (* only final results flow here *)
          else
            Packing.layout_for_cut ~mode:layout_mode prog tyenv rc ~cut
              ~filter_of_seg)
  in
  let code = Interp.stage prog in
  let entry i =
    if i = 0 || assignment.(i) <> assignment.(i - 1) then
      Some (layout_names layouts.(assignment.(i) - 1))
    else None
  in
  let pipe =
    Interp.stage_pipeline code ~entry
      (Array.map (fun seg -> seg.Boundary.seg_stmts) segments)
  in
  {
    prog;
    segments;
    rc;
    tyenv;
    assignment;
    m;
    cuts;
    layouts;
    num_packets;
    externs;
    runtime_defs;
    code;
    pipe;
  }

(* Reduction globals held as partial state by the segments of unit [u]:
   any reduction global a segment touches (updates usually happen through
   conditionals and array-element writes, which the must-Gen analysis
   cannot claim, so the per-segment si_reduc_state is the right signal).
   A segment that only reads such a global still participates correctly:
   it merges upstream partials into its own (possibly identity) state and
   ships the combination at finalize. *)
let reduc_updated plan u =
  Array.to_list plan.rc.Reqcomm.segs
  |> List.fold_left
       (fun acc si ->
         if plan.assignment.(si.Reqcomm.si_seg.Boundary.seg_index) = u then
           Reqcomm.S.fold SS.add si.Reqcomm.si_reduc_state acc
         else acc)
       SS.empty

let global_decl plan name =
  List.find_opt (fun g -> g.Ast.gd_name = name) plan.prog.Ast.globals

let reduc_global_types plan =
  List.filter_map
    (fun g ->
      if Reqcomm.S.mem g.Ast.gd_name (Reqcomm.reduction_globals plan.prog) then
        Some (g.Ast.gd_name, g.Ast.gd_ty)
      else None)
    plan.prog.Ast.globals

(* Marshalling cost charged as memory operations on [ctx]. *)
let charge_marshal ctx layout ~lookup ~consumed_here =
  let ops = Packing.marshal_ops ctx.Interp.prog layout ~lookup ~consumed_here in
  ctx.Interp.counter.Opcount.mem_ops <- ctx.Interp.counter.Opcount.mem_ops + ops

(* Does unit [u] consume field [f] of collection [c]? *)
let consumed_by_unit plan u c f =
  let item = Varset.ElemField (c, f) in
  Array.exists
    (fun si ->
      plan.assignment.(si.Reqcomm.si_seg.Boundary.seg_index) = u
      && Varset.mem item si.Reqcomm.si_cons)
    plan.rc.Reqcomm.segs

(* Weighted operations of the counter delta. *)
let weighted_since ctx before =
  Opcount.weighted (Opcount.diff ~after:ctx.Interp.counter ~before)

(* Pack the unit's partial reduction state as an EOS payload. *)
let finalize_payload plan u ctx inst =
  let updated = reduc_updated plan u in
  if SS.is_empty updated then None
  else begin
    let globals =
      SS.elements updated
      |> List.filter_map (fun name ->
             match global_decl plan name with
             | Some g -> Some (name, g.Ast.gd_ty, Interp.global_value inst name)
             | None -> None)
    in
    let data = Objpack.pack_globals plan.prog globals in
    (* packing cost proportional to payload size *)
    ctx.Interp.counter.Opcount.mem_ops <-
      ctx.Interp.counter.Opcount.mem_ops + (Bytes.length data / 8);
    Some (Filter.make_buffer ~packet:(-1) data)
  end

(* Merge an EOS payload into this copy's globals where relevant; return
   the repacked leftover to forward (None if fully absorbed). *)
let absorb_payload plan ~absorb_all u ctx inst (b : Filter.buffer) =
  let types = reduc_global_types plan in
  let incoming = Objpack.unpack_globals plan.prog types b.Filter.data in
  ctx.Interp.counter.Opcount.mem_ops <-
    ctx.Interp.counter.Opcount.mem_ops + (Bytes.length b.Filter.data / 8);
  let updated = reduc_updated plan u in
  let mine name = absorb_all || SS.mem name updated in
  let leftover =
    List.filter
      (fun (name, v) ->
        if mine name then begin
          let mine_v = Interp.global_value inst name in
          (match (mine_v, v) with
          | V.Vobject _, V.Vobject _ ->
              ignore (Interp.method_call inst mine_v "merge" [ v ])
          | _ -> V.runtime_errorf "cannot merge non-object global %s" name);
          false
        end
        else true)
      incoming
  in
  if leftover = [] then None
  else begin
    let globals =
      List.filter_map
        (fun (name, v) ->
          match global_decl plan name with
          | Some g -> Some (name, g.Ast.gd_ty, v)
          | None -> None)
        leftover
    in
    Some (Filter.make_buffer ~packet:(-1) (Objpack.pack_globals plan.prog globals))
  end

(* Cost of passing a buffer through a unit that hosts no segments. *)
let forward_cost bytes = float_of_int bytes *. 0.25

(* ------------------------------------------------------------------ *)
(* Filter construction                                                  *)
(* ------------------------------------------------------------------ *)

(* Per-copy interpreter state: the copy's globals over the plan's shared
   staged code, the unit's segment indices, and the program points its
   packing reads names at (before its first segment, after its last). *)
type copy = {
  ctx : Interp.ctx;
  inst : Interp.inst;
  segs : int list;
  view_in : Interp.view;
  view_out : Interp.view;
}

let make_copy plan u =
  let ctx =
    Interp.create_ctx ~externs:plan.externs ~runtime_defs:plan.runtime_defs
      plan.prog
  in
  let segs =
    List.filter
      (fun i -> plan.assignment.(i) = u)
      (List.init (Array.length plan.segments) Fun.id)
  in
  let view_in, view_out =
    match segs with
    | [] -> (Interp.base_view plan.pipe, Interp.base_view plan.pipe)
    | first :: _ ->
        ( Interp.entry_view plan.pipe first,
          Interp.exit_view plan.pipe (List.nth segs (List.length segs - 1)) )
  in
  { ctx; inst = Interp.instantiate plan.code ctx; segs; view_in; view_out }

let lookup c view frame =
  Packing.runtime_aware_lookup
    ~runtime_def:(Hashtbl.find_opt c.ctx.Interp.runtime_defs)
    ~lookup:(Interp.lookup view c.inst frame)

(* A fresh packet frame per packet: it dies young with the packet's
   values instead of holding them from an old heap block. *)
let start_packet plan packet =
  let frame = Interp.packet_frame plan.pipe in
  Interp.start_packet plan.pipe frame packet;
  frame

(* The data-source filter for unit 1 (one per copy).  Copy [k] of [width]
   handles packets congruent to k modulo width, mirroring the declustered
   datasets of the paper's data nodes. *)
let make_source plan ~(width : int) (k : int) : Filter.source =
  let c = make_copy plan 1 in
  let ctx = c.ctx in
  let out_layout = if plan.m > 1 then plan.layouts.(1) else [] in
  let next_packet = ref k in
  let next () =
    if !next_packet >= plan.num_packets then None
    else begin
      let p = !next_packet in
      next_packet := !next_packet + width;
      let before = Opcount.copy ctx.Interp.counter in
      let frame = start_packet plan p in
      List.iter (Interp.run_segment plan.pipe c.inst frame) c.segs;
      let lookup = lookup c c.view_out frame in
      let data = Packing.pack plan.prog out_layout ~lookup in
      charge_marshal ctx out_layout ~lookup
        ~consumed_here:(fun c f -> consumed_by_unit plan 1 c f);
      Some (Filter.make_buffer ~packet:p data, weighted_since ctx before)
    end
  in
  let src_finalize () =
    let before = Opcount.copy ctx.Interp.counter in
    let payload = finalize_payload plan 1 ctx c.inst in
    (payload, weighted_since ctx before)
  in
  { Filter.src_name = Printf.sprintf "source[%d]" k; next; src_finalize }

(* An inner or sink filter for unit [u] (2..m). *)
let make_filter plan ~(u : int)
    ?(on_result : ((string * V.t) list -> unit) option) (_k : int) : Filter.t =
  let c = make_copy plan u in
  let ctx = c.ctx in
  let is_sink = u = plan.m in
  let in_layout = plan.layouts.(u - 1) in
  let out_layout = if u < plan.m then plan.layouts.(u) else [] in
  let consumed_here c f = consumed_by_unit plan u c f in
  let name = Printf.sprintf "unit%d" u in
  let process (b : Filter.buffer) =
    let before = Opcount.copy ctx.Interp.counter in
    if c.segs = [] then begin
      (* pass-through placement: unit hosts no computation *)
      let cost = forward_cost (Filter.buffer_size b) in
      if is_sink then (None, cost) else (Some b, cost)
    end
    else begin
      let frame = start_packet plan b.Filter.packet in
      List.iter
        (fun (name, v) -> Interp.bind plan.pipe frame name v)
        (Packing.unpack plan.prog in_layout b.Filter.data);
      charge_marshal ctx in_layout ~lookup:(lookup c c.view_in frame)
        ~consumed_here;
      List.iter (Interp.run_segment plan.pipe c.inst frame) c.segs;
      let out =
        if u < plan.m then begin
          let lookup = lookup c c.view_out frame in
          let data = Packing.pack plan.prog out_layout ~lookup in
          charge_marshal ctx out_layout ~lookup ~consumed_here;
          Some (Filter.make_buffer ~packet:b.Filter.packet data)
        end
        else None
      in
      (out, weighted_since ctx before)
    end
  in
  let on_eos = function
    | None -> (None, 0.0)
    | Some b ->
        let before = Opcount.copy ctx.Interp.counter in
        let fwd = absorb_payload plan ~absorb_all:is_sink u ctx c.inst b in
        ((if is_sink then None else fwd), weighted_since ctx before)
  in
  let finalize () =
    let before = Opcount.copy ctx.Interp.counter in
    let payload =
      if is_sink then None else finalize_payload plan u ctx c.inst
    in
    if is_sink then begin
      match on_result with
      | Some f ->
          let reduc = Reqcomm.reduction_globals plan.prog in
          let results =
            Reqcomm.S.elements reduc
            |> List.map (fun name -> (name, Interp.global_value c.inst name))
          in
          f results
      | None -> ()
    end;
    (payload, weighted_since ctx before)
  in
  { Filter.name; init = (fun () -> 0.0); process; on_eos; finalize }

(* ------------------------------------------------------------------ *)
(* Topology assembly                                                    *)
(* ------------------------------------------------------------------ *)

(* Build a runnable topology for the plan.  [widths] gives the number of
   transparent copies per unit (e.g. [|2; 2; 1|] for the paper's 2-2-1
   configuration); [powers] and [links] describe the cluster.  Returns
   the topology and a handle yielding the sink's merged reduction
   globals after a run. *)
let build_topology plan ~(widths : int array) ~(powers : float array)
    ~(bandwidths : float array) ?(latency = 0.0) () :
    Topology.t * (unit -> (string * V.t) list) =
  if Array.length widths <> plan.m then
    invalid_arg "build_topology: widths/units mismatch";
  if widths.(plan.m - 1) <> 1 then
    invalid_arg "build_topology: the sink stage must have width 1";
  let results = ref [] in
  let on_result r = results := r in
  let stages =
    List.init plan.m (fun u0 ->
        let u = u0 + 1 in
        let role =
          if u = 1 then Topology.Source (fun k -> make_source plan ~width:widths.(0) k)
          else if u = plan.m then
            Topology.Sink (fun k -> make_filter plan ~u ~on_result k)
          else Topology.Inner (fun k -> make_filter plan ~u k)
        in
        {
          Topology.stage_name = Printf.sprintf "C%d" u;
          width = widths.(u0);
          power = powers.(u0);
          role;
        })
  in
  let links =
    List.init (plan.m - 1) (fun i ->
        { Topology.bandwidth = bandwidths.(i); latency })
  in
  (Topology.create ~stages ~links, fun () -> !results)
