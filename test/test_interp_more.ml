(* Additional interpreter and front-end coverage: list operations,
   nested classes, rectdomain values, runtime defines, operation
   accounting details, and the app sources themselves round-tripping
   through the pretty-printer. *)

module A = Alcotest
open Lang
module V = Value

let run ?(externs = []) ?(runtime_defs = []) src =
  let prog = Parser.parse src in
  Typecheck.check
    ~externs:
      (List.map
         (fun (name, _) ->
           Typecheck.{ ex_name = name; ex_params = [ Ast.Tint ]; ex_ret = Ast.Tint })
         externs)
    prog;
  let ctx = Interp.create_ctx ~externs ~runtime_defs prog in
  (ctx, Interp.run_reference ctx)

let acc_template body =
  Printf.sprintf
    {|
class Acc implements Reducinterface {
  float x;
  void merge(Acc other) { this.x = this.x + other.x; }
}
Acc result = new Acc();
pipelined (p in [0 : 1]) {
  Acc local = new Acc();
  %s
  result.merge(local);
}
|}
    body

let result_x genv =
  match Interp.global_value genv "result" with
  | V.Vobject o -> V.as_float (V.field o "x")
  | _ -> A.fail "expected object"

let test_list_get_and_size () =
  let _, genv =
    run
      (acc_template
         "List<float> xs = new List<float>(); xs.add(1.5); xs.add(2.5); \
          xs.add(3.0); local.x = xs.get(1) + float_of_int(xs.size());")
  in
  A.(check (float 1e-12)) "get+size" 5.5 (result_x genv)

let test_list_clear () =
  let _, genv =
    run
      (acc_template
         "List<int> xs = new List<int>(); xs.add(1); xs.clear(); local.x = \
          float_of_int(xs.size());")
  in
  A.(check (float 1e-12)) "cleared" 0.0 (result_x genv)

let test_nested_class_fields () =
  let src =
    {|
class Inner { float v; }
class Outer { Inner left; Inner right; }
class Acc implements Reducinterface {
  float x;
  void merge(Acc other) { this.x = this.x + other.x; }
}
Acc result = new Acc();
pipelined (p in [0 : 1]) {
  Outer o = new Outer();
  o.left = new Inner();
  o.right = new Inner();
  o.left.v = 4.0;
  o.right.v = 2.0;
  Acc local = new Acc();
  local.x = o.left.v / o.right.v;
  result.merge(local);
}
|}
  in
  let prog = Parser.parse src in
  Typecheck.check prog;
  let ctx = Interp.create_ctx prog in
  let genv = Interp.run_reference ctx in
  A.(check (float 1e-12)) "nested" 2.0 (result_x genv)

let test_rectdomain_value_and_foreach () =
  let _, genv =
    run
      (acc_template
         "Rectdomain r = [2 : 6]; foreach (i in r) { local.x += \
          float_of_int(i); }")
  in
  A.(check (float 1e-12)) "2+3+4+5" 14.0 (result_x genv)

let test_runtime_define_missing () =
  let src = acc_template "local.x = float_of_int(runtime_define missing);" in
  let prog = Parser.parse src in
  Typecheck.check prog;
  let ctx = Interp.create_ctx prog in
  match Interp.run_reference ctx with
  | exception V.Runtime_error msg ->
      A.(check bool) "names the define" true
        (Astring.String.is_infix ~affix:"missing" msg)
  | _ -> A.fail "expected runtime error"

let test_set_runtime_define () =
  let src = acc_template "local.x = float_of_int(runtime_define knob);" in
  let prog = Parser.parse src in
  Typecheck.check prog;
  let ctx = Interp.create_ctx prog in
  Interp.set_runtime_define ctx "knob" 17;
  A.(check (float 1e-12)) "value" 17.0 (result_x (Interp.run_reference ctx))

let test_extern_dispatch () =
  let twice : Interp.extern_fn =
   fun _ctx args -> V.Vint (2 * V.as_int (List.hd args))
  in
  let _, genv =
    run
      ~externs:[ ("twice", twice) ]
      (acc_template "local.x = float_of_int(twice(21));")
  in
  A.(check (float 1e-12)) "extern" 42.0 (result_x genv)

let test_unknown_function_errors () =
  let src = acc_template "local.x = float_of_int(nosuch(1));" in
  let prog = Parser.parse src in
  (* bypass the type checker to reach the interpreter's error *)
  let ctx = Interp.create_ctx prog in
  match Interp.run_reference ctx with
  | exception V.Runtime_error msg ->
      A.(check bool) "unknown function" true
        (Astring.String.is_infix ~affix:"nosuch" msg)
  | _ -> A.fail "expected runtime error"

(* Out-of-range indices through an lvalue's array base and through
   List.get are run-time errors of the program, like every other index
   path, not OCaml [Invalid_argument]s. *)
let expect_bounds_error body () =
  let src =
    Printf.sprintf
      {|
class P { float x; }
class Acc implements Reducinterface {
  float x;
  void merge(Acc other) { this.x = this.x + other.x; }
}
Acc result = new Acc();
pipelined (p in [0 : 1]) {
  %s
}
|}
      body
  in
  let prog = Parser.parse src in
  Typecheck.check prog;
  match Interp.run_reference (Interp.create_ctx prog) with
  | exception V.Runtime_error msg ->
      A.(check bool) ("bounds: " ^ msg) true
        (Astring.String.is_infix ~affix:"bounds" msg)
  | _ -> A.fail "expected a runtime error"

let test_builtin_math () =
  let _, genv =
    run
      (acc_template
         "local.x = sqrt(16.0) + fabs(-1.5) + floor(2.9) + ceil(0.1) + \
          fmin(1.0, 2.0) + fmax(1.0, 2.0) + float_of_int(imin(3, 4) + \
          imax(3, 4) + iabs(-5));")
  in
  A.(check (float 1e-9)) "math" (4.0 +. 1.5 +. 2.0 +. 1.0 +. 1.0 +. 2.0 +. 12.0)
    (result_x genv)

let test_trig_builtins () =
  let _, genv = run (acc_template "local.x = sin(0.0) + cos(0.0);") in
  A.(check (float 1e-12)) "sin0+cos0" 1.0 (result_x genv)

let test_mod_and_div_ints () =
  let _, genv =
    run (acc_template "int a = 17; int b = 5; local.x = float_of_int(a / b * 10 + a % b);")
  in
  A.(check (float 1e-12)) "div/mod" 32.0 (result_x genv)

let test_float_int_promotion () =
  let _, genv = run (acc_template "float f = 3; local.x = f + 1;") in
  A.(check (float 1e-12)) "promotion" 4.0 (result_x genv)

let test_alloc_counting () =
  let ctx, _ =
    run (acc_template "foreach (i in [0 : 10]) { Acc tmp = new Acc(); tmp.x = 0.0; }")
  in
  A.(check bool) "allocs counted" true (ctx.Interp.counter.Opcount.allocs >= 10)

let test_append_counting () =
  let ctx, _ =
    run
      (acc_template
         "List<int> xs = new List<int>(); foreach (i in [0 : 7]) { xs.add(i); }")
  in
  A.(check int) "appends" 7 ctx.Interp.counter.Opcount.appends

(* --- app sources survive a pretty-print round trip --- *)

let roundtrip_app name source externs_sig =
  let prog = Parser.parse ~file:name source in
  Typecheck.check ~externs:externs_sig prog;
  let printed = Pretty.program_to_string prog in
  let reparsed = Parser.parse ~file:(name ^ "-printed") printed in
  Typecheck.check ~externs:externs_sig reparsed;
  A.(check string) (name ^ " fixpoint") printed (Pretty.program_to_string reparsed)

let test_app_sources_roundtrip () =
  roundtrip_app "zbuffer" Apps.Isosurface.zbuffer_source Apps.Isosurface.externs_sig;
  roundtrip_app "apix" Apps.Isosurface.apix_source Apps.Isosurface.externs_sig;
  roundtrip_app "knn" Apps.Knn.source Apps.Knn.externs_sig;
  roundtrip_app "vmscope" Apps.Vmscope.source Apps.Vmscope.externs_sig;
  roundtrip_app "kmeans" Apps.Kmeans.source Apps.Kmeans.externs_sig

(* reference executions of a pretty-printed program agree with the
   original *)
let test_roundtrip_execution_agrees () =
  let cfg = Apps.Knn.tiny in
  let run_prog source =
    let prog = Parser.parse source in
    Typecheck.check ~externs:Apps.Knn.externs_sig prog;
    let ctx =
      Interp.create_ctx ~externs:(Apps.Knn.externs cfg)
        ~runtime_defs:(("num_packets", cfg.Apps.Knn.num_packets) :: Apps.Knn.runtime_defs cfg)
        prog
    in
    let genv = Interp.run_reference ctx in
    Apps.Knn.knn_result (Interp.global_value genv "result")
  in
  let original = run_prog Apps.Knn.source in
  let printed =
    Pretty.program_to_string (Parser.parse Apps.Knn.source)
  in
  A.(check bool) "same results" true (original = run_prog printed)

let suite =
  [
    ("list get/size", `Quick, test_list_get_and_size);
    ("list clear", `Quick, test_list_clear);
    ("nested class fields", `Quick, test_nested_class_fields);
    ("rectdomain foreach", `Quick, test_rectdomain_value_and_foreach);
    ("runtime define missing", `Quick, test_runtime_define_missing);
    ("set runtime define", `Quick, test_set_runtime_define);
    ("extern dispatch", `Quick, test_extern_dispatch);
    ("unknown function", `Quick, test_unknown_function_errors);
    ( "field store through out-of-range index",
      `Quick,
      expect_bounds_error "P[] a = new P[2]; a[5].x = 1.0;" );
    ( "field update through out-of-range index",
      `Quick,
      expect_bounds_error "P[] a = new P[2]; a[7].x += 1.0;" );
    ( "list get out of range",
      `Quick,
      expect_bounds_error "List<P> l = new List<P>(); P q = l.get(3);" );
    ("builtin math", `Quick, test_builtin_math);
    ("trig builtins", `Quick, test_trig_builtins);
    ("int div/mod", `Quick, test_mod_and_div_ints);
    ("int->float promotion", `Quick, test_float_int_promotion);
    ("alloc counting", `Quick, test_alloc_counting);
    ("append counting", `Quick, test_append_counting);
    ("app sources round-trip", `Quick, test_app_sources_roundtrip);
    ("round-trip execution agrees", `Quick, test_roundtrip_execution_agrees);
  ]

let () = Alcotest.run "interp-more" [ ("interp-more", suite) ]
