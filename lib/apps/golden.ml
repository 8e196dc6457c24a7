(* Golden renderings checked byte for byte by test_emit_golden and
   written by bin/gen_golden.exe:
   - the emitted filter code of two applications at fixed decompositions;
   - the profiler's raw per-segment operation counts, the Decomp
     assignment and the simulated makespan of each paper app at its tiny
     configuration, so a change to the interpreter that moves a tally or
     a plan shows as a diff. *)

open Core

let plan_of (app : Harness.app) assignment m =
  let prog =
    Compile.front_end ~externs_sig:app.Harness.externs_sig app.Harness.source
  in
  let segments = Compile.segment ~prog in
  let rc = Reqcomm.analyze prog segments in
  Codegen.make_plan prog segments rc ~assignment ~m
    ~num_packets:app.Harness.num_packets ~externs:app.Harness.externs
    ~runtime_defs:
      (("num_packets", app.Harness.num_packets) :: app.Harness.runtime_defs)

let emit_cases =
  [
    ("knn_filters.txt", Harness.knn_app Knn.tiny, [| 1; 1; 1; 2 |], 3);
    ("vmscope_filters.txt", Harness.vmscope_app Vmscope.tiny, [| 1; 1; 3 |], 3);
  ]

let opcount_apps () =
  [
    Harness.iso_app ~name:"zbuffer" ~variant:`Zbuffer Isosurface.tiny;
    Harness.iso_app ~name:"apix" ~variant:`Apix Isosurface.tiny;
    Harness.knn_app Knn.tiny;
    Harness.vmscope_app Vmscope.tiny;
  ]

let opcounts () =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "# Profile operation counts (summed over the samples) and Decomp";
  line "# assignments of the paper apps at their tiny configurations.";
  List.iter
    (fun (app : Harness.app) ->
      line "app %s samples [%s]" app.Harness.name
        (String.concat " "
           (List.map string_of_int (Harness.profile_samples app)));
      List.iter
        (fun (cfg, widths) ->
          let c = Harness.compile ~widths app in
          let p = c.Compile.profile in
          line "  config %s" cfg;
          Array.iteri
            (fun i ops ->
              line "    seg %d %s" i (Fmt.str "%a" Lang.Opcount.pp ops))
            p.Profile.ops;
          line "    boundary_bytes [%s] final_bytes %.17g"
            (String.concat " "
               (Array.to_list
                  (Array.map (Printf.sprintf "%.17g")
                     p.Profile.boundary_bytes)))
            p.Profile.final_bytes;
          line "    assignment %s"
            (Fmt.str "%a" Costmodel.pp_assignment c.Compile.assignment);
          (* the simulated makespan prices every operation the generated
             filters charge, marshalling included *)
          match Harness.run_cell ~widths app with
          | Ok (elapsed, bytes, _, _) ->
              line "    sim elapsed_s %.17g bytes %.17g" elapsed bytes
          | Error _ -> line "    sim failed")
        Harness.configurations)
    (opcount_apps ());
  Buffer.contents b

(* Every golden file: (file name, contents). *)
let files () =
  List.map
    (fun (file, app, assignment, m) ->
      (file, Emit.emit_plan (plan_of app assignment m)))
    emit_cases
  @ [ ("opcounts.txt", opcounts ()) ]
