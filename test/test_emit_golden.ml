(* Golden tests: the rendered filter code of two applications at fixed
   decompositions, and the profiler's per-segment operation counts and
   Decomp plans of the paper apps, must match the committed files.
   Regenerate with `dune exec bin/gen_golden.exe -- test/golden` after an
   intentional change. *)

module A = Alcotest

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The test binary runs from its own build directory; golden files are
   copied next to it by the dune rule (deps). *)
let golden name = read_file (Filename.concat "golden" name)

let rendered = lazy (Apps.Golden.files ())

let check_golden name () =
  A.(check string) name (golden name) (List.assoc name (Lazy.force rendered))

let suite =
  [
    ("knn filters", `Quick, check_golden "knn_filters.txt");
    ("vmscope filters", `Quick, check_golden "vmscope_filters.txt");
    ("opcounts and plans", `Quick, check_golden "opcounts.txt");
  ]

let () = Alcotest.run "emit-golden" [ ("emit-golden", suite) ]
