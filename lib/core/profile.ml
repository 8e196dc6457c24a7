(* Workload profiling.

   The cost model (§4.3) needs, per candidate filter, the number of
   operations executed per packet, and per candidate boundary, the
   communication volume.  The compiler obtains both by executing the
   segments on a few sample packets with the staged interpreter:
   operation counters give Task(f_i), and the packed size of the ReqComm
   set against the live environment gives Vol(f_i).  (The paper counts
   operations statically; profiling on sample packets is the same model
   with measured trip counts, and keeps the cost model honest for
   data-dependent selectivity such as the isosurface cube test.) *)

open Lang

type t = {
  profile : Costmodel.profile;
  (* bytes that cross each boundary per packet, indexed like
     [Reqcomm.reqcomm_into] (entry i = entering segment i) *)
  boundary_bytes : float array;
  (* packed size of the final reduction state *)
  final_bytes : float;
  (* raw operation counts of each segment, summed over the samples *)
  ops : Opcount.t array;
}

(* Profile [segments] by running [samples] packets end-to-end.  The
   [num_packets] parameter is the N of the cost formula (the real packet
   count of the run being planned, not the sample size). *)
let run (prog : Ast.program) (segments : Boundary.segment list)
    (rc : Reqcomm.t) ~(externs : (string * Interp.extern_fn) list)
    ~(runtime_defs : (string * int) list) ~(num_packets : int)
    ?(samples = [ 0 ]) ?(weights = Opcount.default_weights)
    ?(final_copies = 1) () : t =
  let segs = Array.of_list segments in
  let n1 = Array.length segs in
  if n1 = 0 then invalid_arg "Profile.run: no segments";
  let tyenv = Tyenv.of_segments prog segments in
  (* Volume is layout-independent; use the identity filter map. *)
  let layouts =
    Array.init (n1 + 1) (fun i ->
        if i = 0 then []
        else Packing.layout_for_cut prog tyenv rc ~cut:i ~filter_of_seg:(fun s -> s))
  in
  let code = Interp.stage prog in
  let pipe =
    Interp.stage_pipeline code
      ~entry:(fun i -> if i = 0 then Some [] else None)
      (Array.map (fun seg -> seg.Boundary.seg_stmts) segs)
  in
  let ctx = Interp.create_ctx ~externs ~runtime_defs prog in
  let inst = Interp.instantiate code ctx in
  let task = Array.make n1 0.0 in
  let ops = Array.init n1 (fun _ -> Opcount.create ()) in
  let vols = Array.make (n1 + 1) 0.0 in
  let n_samples = List.length samples in
  List.iter
    (fun p ->
      Obs.Trace.with_span ~cat:"profile"
        ~args:[ ("packet", Obs.Trace.Aint p) ]
        (Printf.sprintf "sample %d" p)
      @@ fun () ->
      let frame = Interp.packet_frame pipe in
      Interp.start_packet pipe frame p;
      for i = 0 to n1 - 1 do
        let before = Opcount.copy ctx.Interp.counter in
        Interp.run_segment pipe inst frame i;
        let d = Opcount.diff ~after:ctx.Interp.counter ~before in
        Opcount.add ~into:ops.(i) d;
        task.(i) <- task.(i) +. Opcount.weighted ~weights d;
        if i < n1 - 1 then begin
          let lookup =
            Packing.runtime_aware_lookup
              ~runtime_def:(Hashtbl.find_opt ctx.Interp.runtime_defs)
              ~lookup:(Interp.lookup (Interp.exit_view pipe i) inst frame)
          in
          vols.(i + 1) <-
            vols.(i + 1)
            +. float_of_int (Packing.packed_size prog layouts.(i + 1) ~lookup)
        end
      done)
    samples;
  let avg = float_of_int (max 1 n_samples) in
  Array.iteri (fun i v -> task.(i) <- v /. avg) task;
  Array.iteri (fun i v -> vols.(i) <- v /. avg) vols;
  (* final reduction state size after the sample run *)
  let reduc = Reqcomm.reduction_globals prog in
  let final_globals =
    List.filter_map
      (fun g ->
        if Reqcomm.S.mem g.Ast.gd_name reduc then
          Some
            ( g.Ast.gd_name,
              g.Ast.gd_ty,
              Interp.global_value inst g.Ast.gd_name )
        else None)
      prog.Ast.globals
  in
  let final_bytes = float_of_int (Objpack.packed_size prog final_globals) in
  (* vol_out.(i): bytes produced by segment i = bytes entering segment
     i+1.  The last segment's output is the final reduction state; with
     transparent copies every copy ships its partial at finalize, so the
     per-packet amortization scales with [final_copies]. *)
  let vol_out =
    Array.init n1 (fun i ->
        if i = n1 - 1 then
          final_bytes *. float_of_int final_copies
          /. float_of_int (max 1 num_packets)
        else vols.(i + 1))
  in
  {
    profile = { Costmodel.task; vol_out; packets = num_packets };
    boundary_bytes = vols;
    final_bytes;
    ops;
  }
