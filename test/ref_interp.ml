(* The tree-walking PipeLang interpreter that [Lang.Interp] replaced,
   kept verbatim as the oracle of test_interp_diff.  Every variable
   access hashes its name through a chain of scopes and every block
   allocates a fresh scope.  It shares [Lang.Interp.ctx], so extern
   functions and operation counters work with both interpreters.

   Every executed operation is charged to the context's [Opcount.t]. *)

open Lang
open Ast
module V = Value

type ctx = Interp.ctx = {
  prog : program;
  externs : (string, extern_fn) Hashtbl.t;
  runtime_defs : (string, int) Hashtbl.t;
  counter : Opcount.t;
}

and extern_fn = ctx -> V.t list -> V.t

type scope = (string, V.t ref) Hashtbl.t
type env = scope list

exception Return_value of V.t
exception Break_loop
exception Continue_loop

let create_ctx ?(externs = []) ?(runtime_defs = []) prog =
  let ext = Hashtbl.create 16 in
  List.iter (fun (name, fn) -> Hashtbl.replace ext name fn) externs;
  let rd = Hashtbl.create 8 in
  List.iter (fun (name, v) -> Hashtbl.replace rd name v) runtime_defs;
  { prog; externs = ext; runtime_defs = rd; counter = Opcount.create () }

let set_runtime_define ctx name v = Hashtbl.replace ctx.runtime_defs name v

let new_env () : env = [ Hashtbl.create 16 ]
let push_scope (env : env) : env = Hashtbl.create 16 :: env

let bind (env : env) name v =
  match env with
  | [] -> assert false
  | scope :: _ -> Hashtbl.replace scope name (ref v)

let rec lookup_ref (env : env) name =
  match env with
  | [] -> V.runtime_errorf "unbound variable %s" name
  | scope :: rest -> (
      match Hashtbl.find_opt scope name with
      | Some r -> r
      | None -> lookup_ref rest name)

let lookup env name = !(lookup_ref env name)

let charge_int ctx = ctx.counter.Opcount.int_ops <- ctx.counter.Opcount.int_ops + 1
let charge_float ctx =
  ctx.counter.Opcount.float_ops <- ctx.counter.Opcount.float_ops + 1
let charge_mem ctx = ctx.counter.Opcount.mem_ops <- ctx.counter.Opcount.mem_ops + 1
let charge_branch ctx =
  ctx.counter.Opcount.branch_ops <- ctx.counter.Opcount.branch_ops + 1
let charge_call ctx = ctx.counter.Opcount.calls <- ctx.counter.Opcount.calls + 1
let charge_append ctx =
  ctx.counter.Opcount.appends <- ctx.counter.Opcount.appends + 1
let charge_alloc ctx = ctx.counter.Opcount.allocs <- ctx.counter.Opcount.allocs + 1

(* --- numeric helpers --- *)

let arith ctx op a b =
  match (a, b) with
  | V.Vint x, V.Vint y ->
      charge_int ctx;
      V.Vint
        (match op with
        | Add -> x + y
        | Sub -> x - y
        | Mul -> x * y
        | Div ->
            if y = 0 then V.runtime_errorf "integer division by zero" else x / y
        | Mod ->
            if y = 0 then V.runtime_errorf "integer modulo by zero" else x mod y
        | _ -> assert false)
  | (V.Vfloat _ | V.Vint _), (V.Vfloat _ | V.Vint _) ->
      charge_float ctx;
      let x = V.as_float a and y = V.as_float b in
      V.Vfloat
        (match op with
        | Add -> x +. y
        | Sub -> x -. y
        | Mul -> x *. y
        | Div -> x /. y
        | Mod -> Float.rem x y
        | _ -> assert false)
  | _ ->
      V.runtime_errorf "arithmetic on %s and %s" (V.type_name a) (V.type_name b)

let compare_vals ctx op a b =
  let r =
    match (a, b) with
    | V.Vint x, V.Vint y ->
        charge_int ctx;
        compare x y
    | (V.Vfloat _ | V.Vint _), (V.Vfloat _ | V.Vint _) ->
        charge_float ctx;
        compare (V.as_float a) (V.as_float b)
    | V.Vbool x, V.Vbool y ->
        charge_int ctx;
        compare x y
    | V.Vstring x, V.Vstring y ->
        charge_int ctx;
        String.compare x y
    | _ ->
        V.runtime_errorf "comparison between %s and %s" (V.type_name a)
          (V.type_name b)
  in
  V.Vbool
    (match op with
    | Lt -> r < 0
    | Le -> r <= 0
    | Gt -> r > 0
    | Ge -> r >= 0
    | Eq -> r = 0
    | Ne -> r <> 0
    | _ -> assert false)

let builtin ctx name args =
  let f1 op =
    match args with
    | [ a ] ->
        charge_float ctx;
        V.Vfloat (op (V.as_float a))
    | _ -> V.runtime_errorf "%s expects 1 argument" name
  in
  let f2 op =
    match args with
    | [ a; b ] ->
        charge_float ctx;
        V.Vfloat (op (V.as_float a) (V.as_float b))
    | _ -> V.runtime_errorf "%s expects 2 arguments" name
  in
  match name with
  | "sqrt" -> Some (f1 sqrt)
  | "fabs" -> Some (f1 abs_float)
  | "sin" -> Some (f1 sin)
  | "cos" -> Some (f1 cos)
  | "floor" -> Some (f1 floor)
  | "ceil" -> Some (f1 ceil)
  | "fmin" -> Some (f2 min)
  | "fmax" -> Some (f2 max)
  | "imin" -> (
      match args with
      | [ a; b ] ->
          charge_int ctx;
          Some (V.Vint (min (V.as_int a) (V.as_int b)))
      | _ -> V.runtime_errorf "imin expects 2 arguments")
  | "imax" -> (
      match args with
      | [ a; b ] ->
          charge_int ctx;
          Some (V.Vint (max (V.as_int a) (V.as_int b)))
      | _ -> V.runtime_errorf "imax expects 2 arguments")
  | "iabs" -> (
      match args with
      | [ a ] ->
          charge_int ctx;
          Some (V.Vint (abs (V.as_int a)))
      | _ -> V.runtime_errorf "iabs expects 1 argument")
  | "int_of_float" -> (
      match args with
      | [ a ] ->
          charge_int ctx;
          Some (V.Vint (int_of_float (V.as_float a)))
      | _ -> V.runtime_errorf "int_of_float expects 1 argument")
  | "float_of_int" -> (
      match args with
      | [ a ] ->
          charge_float ctx;
          Some (V.Vfloat (float_of_int (V.as_int a)))
      | _ -> V.runtime_errorf "float_of_int expects 1 argument")
  | "print" -> (
      match args with
      | [ a ] ->
          ignore a;
          (* reference runs are silent; hosts override via externs *)
          Some V.Vunit
      | _ -> V.runtime_errorf "print expects 1 argument")
  | _ -> None

(* --- evaluation --- *)

let rec eval ctx (env : env) (e : expr) : V.t =
  match e.e with
  | Eint n -> V.Vint n
  | Efloat f -> V.Vfloat f
  | Ebool b -> V.Vbool b
  | Estring s -> V.Vstring s
  | Enull -> V.Vnull
  | Eruntime_define name -> (
      match Hashtbl.find_opt ctx.runtime_defs name with
      | Some v -> V.Vint v
      | None -> V.runtime_errorf "runtime_define %s is not set" name)
  | Evar v -> lookup env v
  | Efield (o, f) -> (
      charge_mem ctx;
      match eval ctx env o with
      | V.Vobject obj -> V.field obj f
      | V.Varray a when f = "length" -> V.Vint (Array.length a)
      | v -> V.runtime_errorf "field .%s of non-object %s" f (V.type_name v))
  | Eindex (a, i) ->
      charge_mem ctx;
      let arr = V.as_array (eval ctx env a) in
      let idx = V.as_int (eval ctx env i) in
      if idx < 0 || idx >= Array.length arr then
        V.runtime_errorf "array index %d out of bounds [0, %d)" idx
          (Array.length arr);
      arr.(idx)
  | Ebinop (And, a, b) ->
      charge_branch ctx;
      if V.as_bool (eval ctx env a) then eval ctx env b else V.Vbool false
  | Ebinop (Or, a, b) ->
      charge_branch ctx;
      if V.as_bool (eval ctx env a) then V.Vbool true else eval ctx env b
  | Ebinop (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
      arith ctx op (eval ctx env a) (eval ctx env b)
  | Ebinop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
      compare_vals ctx op (eval ctx env a) (eval ctx env b)
  | Eunop (Neg, a) -> (
      match eval ctx env a with
      | V.Vint n ->
          charge_int ctx;
          V.Vint (-n)
      | V.Vfloat f ->
          charge_float ctx;
          V.Vfloat (-.f)
      | v -> V.runtime_errorf "negation of %s" (V.type_name v))
  | Eunop (Not, a) ->
      charge_int ctx;
      V.Vbool (not (V.as_bool (eval ctx env a)))
  | Ecall (f, args) ->
      let argv = List.map (eval ctx env) args in
      call_function ctx f argv
  | Emethod (o, m, args) ->
      let recv = eval ctx env o in
      let argv = List.map (eval ctx env) args in
      call_method ctx recv m argv
  | Enew (c, args) -> (
      charge_alloc ctx;
      match find_class ctx.prog c with
      | None -> V.runtime_errorf "unknown class %s" c
      | Some cls ->
          let obj = V.make_object cls in
          let argv = List.map (eval ctx env) args in
          if argv <> [] then
            List.iter2
              (fun (_, fname) v -> V.set_field obj fname v)
              cls.cd_fields argv;
          V.Vobject obj)
  | Enew_array (t, n) ->
      charge_alloc ctx;
      let n = V.as_int (eval ctx env n) in
      if n < 0 then V.runtime_errorf "negative array size %d" n;
      V.Varray (Array.init n (fun _ -> V.zero_of_ty t))
  | Enew_list _ ->
      charge_alloc ctx;
      V.Vlist (V.Vec.create ())
  | Erange (lo, hi) ->
      let lo = V.as_int (eval ctx env lo) and hi = V.as_int (eval ctx env hi) in
      V.Vrange (lo, hi)

and call_function ctx f argv =
  charge_call ctx;
  match find_func ctx.prog f with
  | Some fd -> invoke ctx fd None argv
  | None -> (
      match builtin ctx f argv with
      | Some v -> v
      | None -> (
          match Hashtbl.find_opt ctx.externs f with
          | Some fn -> fn ctx argv
          | None -> V.runtime_errorf "unknown function %s" f))

and call_method ctx recv m argv =
  charge_call ctx;
  match recv with
  | V.Vlist l -> (
      match (m, argv) with
      | "add", [ v ] ->
          charge_append ctx;
          V.Vec.push l v;
          V.Vunit
      | "size", [] -> V.Vint (V.Vec.length l)
      | "get", [ V.Vint i ] ->
          if i < 0 || i >= V.Vec.length l then
            V.runtime_errorf "list index %d out of bounds [0, %d)" i
              (V.Vec.length l);
          V.Vec.get l i
      | "clear", [] ->
          V.Vec.clear l;
          V.Vunit
      | _ -> V.runtime_errorf "unknown List method %s/%d" m (List.length argv))
  | V.Vobject obj -> (
      match find_class ctx.prog obj.V.ocls with
      | None -> V.runtime_errorf "object of unknown class %s" obj.V.ocls
      | Some cls -> (
          match find_method cls m with
          | None -> V.runtime_errorf "class %s has no method %s" obj.V.ocls m
          | Some md -> invoke ctx md (Some recv) argv))
  | v -> V.runtime_errorf "method call .%s on %s" m (V.type_name v)

and invoke ctx fd self argv =
  let env = new_env () in
  (match self with None -> () | Some s -> bind env "this" s);
  (try List.iter2 (fun (_, name) v -> bind env name v) fd.fd_params argv
   with Invalid_argument _ ->
     V.runtime_errorf "%s: arity mismatch (%d expected, %d given)" fd.fd_name
       (List.length fd.fd_params) (List.length argv));
  try
    exec_block ctx env fd.fd_body;
    V.Vunit
  with Return_value v -> v

(* --- statements --- *)

and exec ctx (env : env) (st : stmt) =
  match st.s with
  | Sdecl (ty, name, init) ->
      let v =
        match init with None -> V.zero_of_ty ty | Some e -> eval ctx env e
      in
      bind env name v
  | Sassign (l, e) ->
      let v = eval ctx env e in
      assign ctx env l v
  | Supdate (l, op, e) ->
      let v = eval ctx env e in
      (* resolve the place once: index expressions must not be
         re-evaluated (they may have side effects) *)
      (match l with
      | Lindex (base, i) ->
          charge_mem ctx;
          let arr = V.as_array (read_lvalue ctx env base) in
          let idx = V.as_int (eval ctx env i) in
          if idx < 0 || idx >= Array.length arr then
            V.runtime_errorf "array update index %d out of bounds" idx;
          charge_mem ctx;
          arr.(idx) <- arith ctx op arr.(idx) v
      | _ ->
          let old = read_lvalue ctx env l in
          assign ctx env l (arith ctx op old v))
  | Sif (c, th, el) ->
      charge_branch ctx;
      if V.as_bool (eval ctx env c) then exec_block ctx env th
      else exec_block ctx env el
  | Sfor (init, cond, step, body) ->
      let env = push_scope env in
      exec ctx env init;
      let rec loop () =
        charge_branch ctx;
        if V.as_bool (eval ctx env cond) then begin
          (try exec_block ctx env body with Continue_loop -> ());
          exec ctx env step;
          loop ()
        end
      in
      (try loop () with Break_loop -> ())
  | Swhile (cond, body) ->
      let rec loop () =
        charge_branch ctx;
        if V.as_bool (eval ctx env cond) then begin
          (try exec_block ctx env body with Continue_loop -> ());
          loop ()
        end
      in
      (try loop () with Break_loop -> ())
  | Sforeach { fe_var; fe_coll; fe_where; fe_body } ->
      let coll = eval ctx env fe_coll in
      let run_elt v =
        charge_branch ctx;
        let env = push_scope env in
        bind env fe_var v;
        let selected =
          match fe_where with
          | None -> true
          | Some w -> V.as_bool (eval ctx env w)
        in
        if selected then
          try exec_block ctx env fe_body with Continue_loop -> ()
      in
      (try
         match coll with
         | V.Vrange (lo, hi) ->
             for i = lo to hi - 1 do
               run_elt (V.Vint i)
             done
         | V.Vlist l -> V.Vec.iter run_elt l
         | V.Varray a -> Array.iter run_elt a
         | v -> V.runtime_errorf "foreach over %s" (V.type_name v)
       with Break_loop -> ())
  | Sexpr e -> ignore (eval ctx env e)
  | Sreturn None -> raise (Return_value V.Vunit)
  | Sreturn (Some e) -> raise (Return_value (eval ctx env e))
  | Sbreak -> raise Break_loop
  | Scontinue -> raise Continue_loop
  | Sblock body -> exec_block ctx env body

and exec_block ctx env body =
  let env = push_scope env in
  List.iter (exec ctx env) body

and read_lvalue ctx env = function
  | Lvar v -> lookup env v
  | Lfield (l, f) -> (
      charge_mem ctx;
      match read_lvalue ctx env l with
      | V.Vobject obj -> V.field obj f
      | v -> V.runtime_errorf "field .%s of non-object %s" f (V.type_name v))
  | Lindex (l, i) ->
      charge_mem ctx;
      let arr = V.as_array (read_lvalue ctx env l) in
      let idx = V.as_int (eval ctx env i) in
      if idx < 0 || idx >= Array.length arr then
        V.runtime_errorf "array index %d out of bounds [0, %d)" idx
          (Array.length arr);
      arr.(idx)

and assign ctx env l v =
  match l with
  | Lvar name ->
      charge_mem ctx;
      lookup_ref env name := v
  | Lfield (l, f) -> (
      charge_mem ctx;
      match read_lvalue ctx env l with
      | V.Vobject obj -> V.set_field obj f v
      | w -> V.runtime_errorf "field write .%s on %s" f (V.type_name w))
  | Lindex (l, i) ->
      charge_mem ctx;
      let arr = V.as_array (read_lvalue ctx env l) in
      let idx = V.as_int (eval ctx env i) in
      if idx < 0 || idx >= Array.length arr then
        V.runtime_errorf "array store index %d out of bounds" idx;
      arr.(idx) <- v

(* Execute a bare statement list in a given environment (filters use this
   entry point with an environment unpacked from a stream buffer). *)
let exec_stmts ctx env stmts = List.iter (exec ctx env) stmts

(* --- reference whole-program execution --- *)

(* Build the global environment: evaluate the top-level declarations in
   order.  Returns the environment; reduction globals accumulate across
   packets. *)
let init_globals ctx : env =
  let env = new_env () in
  List.iter
    (fun g ->
      let v =
        match g.gd_init with
        | None -> V.zero_of_ty g.gd_ty
        | Some e -> eval ctx env e
      in
      bind env g.gd_name v)
    ctx.prog.globals;
  env

(* Run the whole pipelined loop sequentially: the reference semantics
   against which every decomposed execution is checked. *)
let run_reference ctx : env =
  let genv = init_globals ctx in
  let n = V.as_int (eval ctx genv ctx.prog.pipeline.pd_count) in
  for p = 0 to n - 1 do
    let env = push_scope genv in
    bind env ctx.prog.pipeline.pd_var (V.Vint p);
    exec_block ctx env ctx.prog.pipeline.pd_body
  done;
  genv

let global_value genv name = lookup genv name
