(* Differential test: the staged interpreter ([Lang.Interp]) against the
   tree-walker it replaced ([Ref_interp], kept as an oracle).

   Each program is split into segments the way the compiler splits it.
   After the global initialisers, and after every segment of every
   packet, both interpreters must hold equal globals, equal packet-level
   names and an equal [Opcount] record; a run-time error must come from
   the same segment with the same message.  A whole reference run is
   compared the same way.  The programs are fixed cases (functions,
   methods, while/break/continue, shadowing, recursion, evaluation order,
   error paths, the paper apps) and random pipeline programs. *)

module A = Alcotest
open Lang
module V = Value
module R = Ref_interp

exception Stop

(* Structural equality that also equates NaNs: both interpreters must
   compute the same bits, including a NaN. *)
let rec same a b =
  match (a, b) with
  | V.Vfloat x, V.Vfloat y -> Float.equal x y
  | V.Varray x, V.Varray y ->
      Array.length x = Array.length y && Array.for_all2 same x y
  | V.Vlist x, V.Vlist y ->
      V.Vec.length x = V.Vec.length y
      && List.for_all2 same (V.Vec.to_list x) (V.Vec.to_list y)
  | V.Vobject x, V.Vobject y ->
      String.equal x.V.ocls y.V.ocls
      && Hashtbl.length x.V.ofields = Hashtbl.length y.V.ofields
      && Hashtbl.fold
           (fun k v ok ->
             ok
             &&
             match Hashtbl.find_opt y.V.ofields k with
             | Some w -> same v w
             | None -> false)
           x.V.ofields true
  | _ -> V.equal a b

let value = A.testable V.pp same

(* The kind of an exception, without the module path of the
   interpreter that raised it. *)
let kind = function
  | V.Runtime_error m -> "runtime error: " ^ m
  | e ->
      let s = Printexc.to_string e in
      let s =
        match String.index_opt s '(' with Some i -> String.sub s 0 i | None -> s
      in
      let s =
        match String.rindex_opt s '.' with
        | Some i -> String.sub s (i + 1) (String.length s - i - 1)
        | None -> s
      in
      "exception " ^ s

let attempt f = match f () with () -> Ok () | exception e -> Error (kind e)

(* Both succeeded (true), or both failed alike (false: stop here). *)
let agree what o n =
  match (o, n) with
  | Ok (), Ok () -> true
  | Error a, Error b ->
      A.(check string) (what ^ ": error") a b;
      false
  | Ok (), Error b -> A.failf "%s: only the staged interpreter raised %s" what b
  | Error a, Ok () -> A.failf "%s: only the tree-walker raised %s" what a

let counters what (o : Interp.ctx) (n : Interp.ctx) =
  A.(check string) (what ^ ": opcount")
    (Fmt.str "%a" Opcount.pp o.Interp.counter)
    (Fmt.str "%a" Opcount.pp n.Interp.counter)

let globals what (prog : Ast.program) genv inst =
  List.iter
    (fun g ->
      let name = g.Ast.gd_name in
      A.check value
        (Printf.sprintf "%s: global %s" what name)
        (R.global_value genv name)
        (Interp.global_value inst name))
    prog.Ast.globals

let check_program ?(externs = []) ?(runtime_defs = []) ?externs_sig
    ?(typecheck = true) src =
  let prog = Parser.parse src in
  if typecheck then Typecheck.check ?externs:externs_sig prog;
  let segs =
    Core.Boundary.segments_of_body prog.Ast.pipeline.Ast.pd_body
    |> List.map (fun s -> s.Core.Boundary.seg_stmts)
    |> Array.of_list
  in
  let octx = R.create_ctx ~externs ~runtime_defs prog in
  let nctx = Interp.create_ctx ~externs ~runtime_defs prog in
  let code = Interp.stage prog in
  let pipe =
    Interp.stage_pipeline code
      ~entry:(fun i -> if i = 0 then Some [] else None)
      segs
  in
  let genv = ref (R.new_env ()) and inst = ref None in
  let o = attempt (fun () -> genv := R.init_globals octx) in
  let n = attempt (fun () -> inst := Some (Interp.instantiate code nctx)) in
  counters "init" octx nctx;
  (try
     if not (agree "init" o n) then raise Stop;
     let genv = !genv and inst = Option.get !inst in
     globals "init" prog genv inst;
     (* the count is evaluated on a scratch context: it is charged by
        [run_reference] only, compared below *)
     let count =
       V.as_int
         (R.eval
            (R.create_ctx ~externs ~runtime_defs prog)
            genv prog.Ast.pipeline.Ast.pd_count)
     in
     for p = 0 to count - 1 do
       let env = R.push_scope genv in
       R.bind env prog.Ast.pipeline.Ast.pd_var (V.Vint p);
       let frame = Interp.packet_frame pipe in
       Interp.start_packet pipe frame p;
       Array.iteri
         (fun i stmts ->
           let what = Printf.sprintf "packet %d segment %d" p i in
           let o = attempt (fun () -> R.exec_stmts octx env stmts) in
           let n = attempt (fun () -> Interp.run_segment pipe inst frame i) in
           counters what octx nctx;
           if not (agree what o n) then raise Stop;
           globals what prog genv inst;
           Hashtbl.iter
             (fun name r ->
               A.check value
                 (Printf.sprintf "%s: %s" what name)
                 !r
                 (Interp.lookup (Interp.exit_view pipe i) inst frame name))
             (List.hd env))
         segs
     done
   with Stop -> ());
  (* whole reference runs *)
  let octx = R.create_ctx ~externs ~runtime_defs prog in
  let nctx = Interp.create_ctx ~externs ~runtime_defs prog in
  let genv = ref (R.new_env ()) and inst = ref None in
  let o = attempt (fun () -> genv := R.run_reference octx) in
  let n = attempt (fun () -> inst := Some (Interp.run_reference nctx)) in
  counters "reference" octx nctx;
  if agree "reference" o n then
    globals "reference" prog !genv (Option.get !inst)

(* --- fixed cases ---------------------------------------------------- *)

let acc body =
  Printf.sprintf
    {|
class Acc implements Reducinterface {
  int n;
  float x;
  void merge(Acc other) {
    this.n = this.n + other.n;
    this.x = this.x + other.x;
  }
  int twice(int k) { return 2 * k + this.n; }
}
Acc result = new Acc();
%s
|}
    body

let fixed =
  [
    ( "function calls and recursion",
      acc
        {|int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
float avg(float a, float b) { float s = a + b; return s / 2.0; }
pipelined (p in [0 : 3]) {
  Acc local = new Acc();
  local.n = fib(8 + p);
  local.x = avg(float_of_int(p), 1.5);
  result.merge(local);
}|} );
    ( "methods",
      acc
        {|pipelined (p in [0 : 2]) {
  Acc local = new Acc();
  local.n = 3;
  local.n = local.twice(p + 1);
  Acc other = new Acc(5, 0.5);
  local.merge(other);
  result.merge(local);
}|} );
    ( "while break continue",
      acc
        {|pipelined (p in [0 : 2]) {
  Acc local = new Acc();
  int i = 0;
  while (true) {
    i = i + 1;
    if (i > 40 + p) { break; }
    if (i % 3 == 0) { continue; }
    local.n += 1;
  }
  for (int j = 0; j < 10; j = j + 1) {
    if (j == 7) { break; }
    if (j % 2 == 1) { continue; }
    local.x += 0.5;
  }
  result.merge(local);
}|} );
    ( "shadowing",
      acc
        {|int k = 10;
pipelined (p in [0 : 2]) {
  Acc local = new Acc();
  int k = 1 + p;
  {
    int k = 100;
    k = k + 1;
    local.n += k;
  }
  foreach (k in [0 : 3]) { local.n += k; }
  local.n += k;
  result.merge(local);
}|} );
    ( "evaluation order",
      acc
        {|int bump(Acc a) { a.n = a.n + 1; return a.n; }
pipelined (p in [0 : 1]) {
  Acc local = new Acc();
  Acc c = new Acc();
  local.n = bump(c) * 10 + bump(c);
  local.x = float_of_int(bump(c)) - float_of_int(bump(c) * 3);
  result.merge(local);
}|} );
    ( "where, lists, arrays, ranges",
      acc
        {|pipelined (p in [0 : 2]) {
  Acc local = new Acc();
  List<int> xs = new List<int>();
  foreach (i in [0 : 12] where i % 3 != 1) { xs.add(i * p); }
  int[] a = new int[4];
  for (int i = 0; i < 4; i = i + 1) { a[i] = xs.get(i) + a.length; }
  a[2] += 5;
  foreach (v in a) { local.n += v; }
  foreach (v in xs) { local.x += float_of_int(v); }
  local.n += xs.size();
  xs.clear();
  local.n += xs.size();
  result.merge(local);
}|} );
    ( "mixed arithmetic and builtins",
      acc
        {|pipelined (p in [0 : 2]) {
  Acc local = new Acc();
  float f = 1.5 * float_of_int(p) + 2;
  int q = imax(imin(7, p * 5), iabs(-3)) % 4;
  local.x = sqrt(f) + fabs(-f) + floor(f) + ceil(f);
  local.x += fmin(f, 0.5) + fmax(f, 0.5);
  local.n = q + int_of_float(f) - (-q);
  if (f > 2.0 && !(q == 0) || p == 0) { local.n += 1; }
  result.merge(local);
}|} );
    ( "division by zero",
      acc "pipelined (p in [0 : 2]) { int x = 1; int y = x / (x - p); }" );
    ( "out-of-range index",
      acc
        "pipelined (p in [0 : 2]) { int[] a = new int[2]; a[p] = 1; a[p + 1] \
         += 2; }" );
  ]

(* Ill-typed programs, so the interpreters' own checks fire. *)
let untyped =
  [
    ("unknown function", acc "pipelined (p in [0 : 1]) { int x = nosuch(1); }");
    ( "unbound variable",
      acc "pipelined (p in [0 : 1]) { int x = 1; x = y + 1; }" );
    ( "function cannot see globals",
      acc
        {|int peek() { return result.n; }
pipelined (p in [0 : 1]) { int x = peek(); }|} );
    ( "arity mismatch",
      acc
        {|int one(int a) { return a; }
pipelined (p in [0 : 1]) { int x = one(1, 2); }|} );
    ( "builtin arity",
      acc "pipelined (p in [0 : 1]) { float x = sqrt(1.0, 2.0); }" );
    ( "method on int",
      acc "pipelined (p in [0 : 1]) { int x = 3; int y = x.size(); }" );
  ]

let app_case (app : Apps.Harness.app) () =
  check_program ~externs:app.Apps.Harness.externs
    ~externs_sig:app.Apps.Harness.externs_sig
    ~runtime_defs:
      (("num_packets", app.Apps.Harness.num_packets)
      :: app.Apps.Harness.runtime_defs)
    app.Apps.Harness.source

let apps =
  let module H = Apps.Harness in
  [
    H.iso_app ~name:"zbuffer" ~variant:`Zbuffer Apps.Isosurface.tiny;
    H.iso_app ~name:"apix" ~variant:`Apix Apps.Isosurface.tiny;
    H.knn_app Apps.Knn.tiny;
    H.vmscope_app Apps.Vmscope.tiny;
  ]

(* --- random pipelines ----------------------------------------------- *)

(* Integer expressions over the packet index, a plain global and the
   integer locals declared so far ([Ivar j] names local j modulo their
   number).  Division and modulo may hit zero: an error both
   interpreters must raise alike. *)
type iexpr =
  | Ilit of int
  | Ip
  | Ig
  | Ivar of int
  | Ibin of string * iexpr * iexpr
  | Isteps of iexpr
  | Ifib of int

(* Float expressions over the element fields of [t]. *)
type fexpr =
  | Fa
  | Fb
  | Flit of int
  | Fbin of string * fexpr * fexpr
  | Fmin of fexpr * fexpr
  | Fmix of fexpr * fexpr
  | Fscaled of int
  | Fint of iexpr

type stmt =
  | Decl of iexpr
  | Shadow of int * iexpr
  | Set_global of iexpr
  | Transform of bool * fexpr
  | Bump of fexpr
  | Loop of int * int
  | Arr of int * int

type spec = { stmts : stmt list; fold : fexpr }

let gen_iexpr =
  let open QCheck.Gen in
  fix
    (fun self n ->
      let base =
        oneof [ map (fun k -> Ilit (k - 3)) (0 -- 9); return Ip; return Ig;
                map (fun j -> Ivar j) small_nat ]
      in
      if n <= 0 then base
      else
        frequency
          [
            (3, base);
            ( 3,
              map3
                (fun op a b -> Ibin (op, a, b))
                (oneofl [ "+"; "-"; "*"; "/"; "%" ])
                (self (n / 2)) (self (n / 2)) );
            (1, map (fun a -> Isteps a) (self 0));
            (1, map (fun k -> Ifib k) (0 -- 10));
          ])
    3

let gen_fexpr =
  let open QCheck.Gen in
  fix
    (fun self n ->
      let base =
        oneof
          [ return Fa; return Fb; map (fun k -> Flit k) (0 -- 8);
            map (fun k -> Fscaled k) (0 -- 4) ]
      in
      if n <= 0 then base
      else
        frequency
          [
            (3, base);
            ( 3,
              map3
                (fun op a b -> Fbin (op, a, b))
                (oneofl [ "+"; "-"; "*"; "/" ])
                (self (n / 2)) (self (n / 2)) );
            (1, map2 (fun a b -> Fmin (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> Fmix (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map (fun e -> Fint e) gen_iexpr);
          ])
    3

let gen_stmt =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun e -> Decl e) gen_iexpr);
      (1, map2 (fun j e -> Shadow (j, e)) small_nat gen_iexpr);
      (1, map (fun e -> Set_global e) gen_iexpr);
      (2, map2 (fun to_a e -> Transform (to_a, e)) bool gen_fexpr);
      (1, map (fun e -> Bump e) gen_fexpr);
      (1, map2 (fun a b -> Loop (a, b)) (0 -- 20) (0 -- 6));
      (1, map2 (fun n i -> Arr (n, i)) (1 -- 6) (0 -- 6));
    ]

let gen_spec =
  let open QCheck.Gen in
  map2
    (fun stmts fold -> { stmts; fold })
    (list_size (0 -- 6) gen_stmt)
    gen_fexpr

let source_of_spec spec =
  let ints = ref 0 in
  let var j = if !ints = 0 then "p" else Printf.sprintf "k%d" (j mod !ints) in
  let rec ie = function
    | Ilit k when k < 0 -> Printf.sprintf "(0 - %d)" (-k)
    | Ilit k -> string_of_int k
    | Ip -> "p"
    | Ig -> "g"
    | Ivar j -> var j
    | Ibin (op, a, b) -> Printf.sprintf "(%s %s %s)" (ie a) op (ie b)
    | Isteps a -> Printf.sprintf "steps(%s)" (ie a)
    | Ifib k -> Printf.sprintf "fib(%d)" k
  in
  let rec fe = function
    | Fa -> "t.a"
    | Fb -> "t.b"
    | Flit k -> Printf.sprintf "%d.25" k
    | Fbin (op, a, b) -> Printf.sprintf "(%s %s %s)" (fe a) op (fe b)
    | Fmin (a, b) -> Printf.sprintf "fmin(%s, %s)" (fe a) (fe b)
    | Fmix (a, b) -> Printf.sprintf "mix(%s, %s)" (fe a) (fe b)
    | Fscaled k -> Printf.sprintf "t.scaled(%d.5)" k
    | Fint e -> Printf.sprintf "float_of_int(%s)" (ie e)
  in
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  Buffer.add_string b
    {|class P {
  float a;
  float b;
  float scaled(float k) { return this.a * k + this.b; }
  void bump(float d) { this.a = this.a + d; }
}
class R implements Reducinterface {
  float x;
  int n;
  void merge(R other) {
    this.x = this.x + other.x;
    this.n = this.n + other.n;
  }
}
int g = 2;
R acc = new R();
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int steps(int k) {
  int s = 0;
  int i = 0;
  while (i < k) {
    i = i + 1;
    if (i % 3 == 0) { continue; }
    if (s > 50) { break; }
    s = s + i;
  }
  return s;
}
float mix(float u, float v) {
  float w = u * 0.5;
  if (u > v) { return w + v; }
  return w - v;
}
pipelined (p in [0 : runtime_define num_packets]) {
  List<P> ps = read_ps(p);
|};
  List.iter
    (function
      | Decl e ->
          let rhs = ie e in
          add "  int k%d = %s;\n" !ints rhs;
          incr ints
      | Shadow (j, e) ->
          let outer = var j in
          add "  { int %s = %s; %s = %s * 2; g = g + %s; }\n" outer (ie e) outer
            outer outer;
          if outer <> "p" then add "  g = g - %s;\n" outer
      | Set_global e -> add "  g = g + %s;\n" (ie e)
      | Transform (to_a, e) ->
          add "  foreach (t in ps) { t.%s = %s; }\n"
            (if to_a then "a" else "b")
            (fe e)
      | Bump e ->
          add "  foreach (t in ps where t.a >= t.b) { t.bump(%s); }\n" (fe e)
      | Loop (start, stop) ->
          add
            "  { int w = %d;\n\
            \    while (w > 0) {\n\
            \      w = w - 1;\n\
            \      if (w %% 4 == 1) { continue; }\n\
            \      if (w < %d) { break; }\n\
            \      g = g + w;\n\
            \    } }\n"
            start stop
      | Arr (n, i) ->
          add
            "  { float[] arr = new float[%d];\n\
            \    for (int q = 0; q < %d; q = q + 1) {\n\
            \      arr[q] = float_of_int(q) * 0.25;\n\
            \    }\n\
            \    arr[%d] += 1.0;\n\
            \    g = g + int_of_float(arr[%d] * 4.0); }\n"
            n n i i)
    spec.stmts;
  add
    "  R local = new R();\n\
    \  foreach (t in ps) {\n\
    \    local.x += %s;\n\
    \    local.n += 1 + g %% 5;\n\
    \  }\n\
    \  acc.merge(local);\n\
     }\n"
    (fe spec.fold);
  Buffer.contents b

let read_ps : string * Interp.extern_fn =
  ( "read_ps",
    fun _ctx args ->
      let p = V.as_int (List.hd args) in
      let vec = V.Vec.create () in
      for i = 0 to 7 do
        let fields = Hashtbl.create 2 in
        Hashtbl.replace fields "a"
          (V.Vfloat (Apps.Prng.hash_float 21 ((p * 16) + (2 * i))));
        Hashtbl.replace fields "b"
          (V.Vfloat (Apps.Prng.hash_float 21 ((p * 16) + (2 * i) + 1)));
        V.Vec.push vec (V.Vobject { V.ocls = "P"; V.ofields = fields })
      done;
      V.Vlist vec )

let externs_sig =
  [
    Typecheck.
      {
        ex_name = "read_ps";
        ex_params = [ Ast.Tint ];
        ex_ret = Ast.Tlist (Ast.Tclass "P");
      };
  ]

let prop_random =
  QCheck.Test.make ~name:"random pipelines: staged == tree-walker" ~count:150
    (QCheck.make gen_spec ~print:source_of_spec)
    (fun spec ->
      check_program ~externs:[ read_ps ] ~externs_sig
        ~runtime_defs:[ ("num_packets", 3) ]
        (source_of_spec spec);
      true)

let () =
  let case typecheck (name, src) =
    (name, `Quick, fun () -> check_program ~typecheck src)
  in
  Alcotest.run "interp-diff"
    [
      ("fixed", List.map (case true) fixed);
      ("untyped", List.map (case false) untyped);
      ( "apps",
        List.map
          (fun (app : Apps.Harness.app) ->
            (app.Apps.Harness.name, `Quick, app_case app))
          apps );
      ("random", [ QCheck_alcotest.to_alcotest prop_random ]);
    ]
