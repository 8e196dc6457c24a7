(* Regenerate the golden files used by test_emit_golden:
     dune exec bin/gen_golden.exe -- <output-dir> *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  List.iter
    (fun (file, contents) ->
      let path = Filename.concat dir file in
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      Printf.printf "wrote %s\n" path)
    (Apps.Golden.files ())
