(* PipeLang interpreter with operation accounting: resolve, stage, run.

   - Resolve: every local (parameters, [this], each declaration site,
     loop variables) gets a slot in its function's frame; globals get an
     index into a per-copy globals array.  The pipelined body has one
     packet frame whose layout holds the packet variable and every
     segment-level declaration, one slot per name.
   - Stage: each function, method, global initialiser and code segment
     becomes an OCaml closure over [inst -> frame -> _] once per plan.
     Calls, builtins, literals and variable accesses are bound while
     staging.  Names still looked up at run time: externs and runtime
     defines (host state of the context), object fields (the [Value.obj]
     representation), and methods that several classes define.  Staged
     code is immutable and shared by every copy and domain.
   - Run: a copy owns its [inst] (context, counter, globals) and its
     frames.

   Every executed operation is charged to the context's [Opcount.t] at
   the same point and under the same run-time type test as the reference
   tree-walker; the compiler's profiling pass and the simulated cluster
   both read it. *)

open Ast
module V = Value

type ctx = {
  prog : program;
  externs : (string, extern_fn) Hashtbl.t;
  runtime_defs : (string, int) Hashtbl.t;
  counter : Opcount.t;
}

(* Host-provided functions (data sources, sinks).  They receive the
   context so they can charge operation costs (e.g. per element read)
   and consult runtime_defines (query parameters). *)
and extern_fn = ctx -> V.t list -> V.t

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

let charge_int (c : Opcount.t) = c.int_ops <- c.int_ops + 1
let charge_float (c : Opcount.t) = c.float_ops <- c.float_ops + 1
let charge_mem (c : Opcount.t) = c.mem_ops <- c.mem_ops + 1
let charge_branch (c : Opcount.t) = c.branch_ops <- c.branch_ops + 1
let charge_call (c : Opcount.t) = c.calls <- c.calls + 1
let charge_append (c : Opcount.t) = c.appends <- c.appends + 1
let charge_alloc (c : Opcount.t) = c.allocs <- c.allocs + 1

(* --- staged code ---------------------------------------------------- *)

(* A running copy of a staged program. *)
type inst = {
  code : code;
  ctx : ctx;
  cnt : Opcount.t; (* = ctx.counter *)
  globals : V.t array;
}

(* Filled once by [stage], then read-only. *)
and code = {
  c_prog : program;
  c_funcs : (string, fn) Hashtbl.t;
  c_classes : (string, class_decl * (string, fn) Hashtbl.t) Hashtbl.t;
  c_globals : (string, int) Hashtbl.t; (* name -> index in [inst.globals] *)
  mutable c_init : (int * ex) array; (* global initialisers, in order *)
  mutable c_count : ex; (* the pipelined loop's packet count *)
}

(* A staged function or method.  Its frame holds [this] (methods) at
   slot 0, then the parameters, then one slot per declaration site.  The
   mutable fields are filled once while staging, so recursive calls can
   close over the entry before its body exists. *)
and fn = {
  fn_decl : func_decl;
  fn_base : int; (* slot of the first parameter *)
  mutable fn_slots : int;
  mutable fn_run : inst -> V.t array -> V.t;
}

and ex = inst -> V.t array -> V.t

type st = inst -> V.t array -> unit

let vtrue = V.Vbool true
let vfalse = V.Vbool false
let vbool b = if b then vtrue else vfalse
let unbound name = V.runtime_errorf "unbound variable %s" name

(* --- numeric helpers --- *)

let arith_error a b =
  V.runtime_errorf "arithmetic on %s and %s" (V.type_name a) (V.type_name b)

(* The int/float choice is made on the run-time values, exactly like the
   tree-walker; the operator is bound when the expression is staged. *)
let arith op : Opcount.t -> V.t -> V.t -> V.t =
  let iop, fop =
    match op with
    | Add -> (( + ), ( +. ))
    | Sub -> (( - ), ( -. ))
    | Mul -> (( * ), ( *. ))
    | Div ->
        ( (fun x y ->
            if y = 0 then V.runtime_errorf "integer division by zero"
            else x / y),
          ( /. ) )
    | Mod ->
        ( (fun x y ->
            if y = 0 then V.runtime_errorf "integer modulo by zero"
            else x mod y),
          Float.rem )
    | _ -> invalid_arg "Interp.arith"
  in
  fun c a b ->
    match (a, b) with
    | V.Vint x, V.Vint y ->
        charge_int c;
        V.Vint (iop x y)
    | (V.Vfloat _ | V.Vint _), (V.Vfloat _ | V.Vint _) ->
        charge_float c;
        V.Vfloat (fop (V.as_float a) (V.as_float b))
    | _ -> arith_error a b

let compare_vals c op a b =
  let r =
    match (a, b) with
    | V.Vint x, V.Vint y ->
        charge_int c;
        Int.compare x y
    | (V.Vfloat _ | V.Vint _), (V.Vfloat _ | V.Vint _) ->
        charge_float c;
        Float.compare (V.as_float a) (V.as_float b)
    | V.Vbool x, V.Vbool y ->
        charge_int c;
        Bool.compare x y
    | V.Vstring x, V.Vstring y ->
        charge_int c;
        String.compare x y
    | _ ->
        V.runtime_errorf "comparison between %s and %s" (V.type_name a)
          (V.type_name b)
  in
  vbool
    (match op with
    | Lt -> r < 0
    | Le -> r <= 0
    | Gt -> r > 0
    | Ge -> r >= 0
    | Eq -> r = 0
    | Ne -> r <> 0
    | _ -> invalid_arg "Interp.compare_vals")

(* --- builtins: bound once, at staging --- *)

type builtin =
  | B1 of (Opcount.t -> V.t -> V.t)
  | B2 of (Opcount.t -> V.t -> V.t -> V.t)

let builtin name =
  let f1 op =
    B1
      (fun c a ->
        charge_float c;
        V.Vfloat (op (V.as_float a)))
  in
  let f2 op =
    B2
      (fun c a b ->
        charge_float c;
        let y = V.as_float b in
        V.Vfloat (op (V.as_float a) y))
  in
  let fmin (x : float) y = if x <= y then x else y in
  let fmax (x : float) y = if x >= y then x else y in
  match name with
  | "sqrt" -> Some (f1 sqrt)
  | "fabs" -> Some (f1 abs_float)
  | "sin" -> Some (f1 sin)
  | "cos" -> Some (f1 cos)
  | "floor" -> Some (f1 floor)
  | "ceil" -> Some (f1 ceil)
  | "fmin" -> Some (f2 fmin)
  | "fmax" -> Some (f2 fmax)
  | "imin" ->
      Some
        (B2
           (fun c a b ->
             charge_int c;
             let y = V.as_int b in
             V.Vint (Int.min (V.as_int a) y)))
  | "imax" ->
      Some
        (B2
           (fun c a b ->
             charge_int c;
             let y = V.as_int b in
             V.Vint (Int.max (V.as_int a) y)))
  | "iabs" ->
      Some
        (B1
           (fun c a ->
             charge_int c;
             V.Vint (abs (V.as_int a))))
  | "int_of_float" ->
      Some
        (B1
           (fun c a ->
             charge_int c;
             V.Vint (int_of_float (V.as_float a))))
  | "float_of_int" ->
      Some
        (B1
           (fun c a ->
             charge_float c;
             V.Vfloat (float_of_int (V.as_int a))))
  (* reference runs are silent; hosts override via externs *)
  | "print" -> Some (B1 (fun _ _ -> V.Vunit))
  | _ -> None

(* --- calls at run time --- *)

let list_method c l m argv =
  match (m, argv) with
  | "add", [ v ] ->
      charge_append c;
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
  | _ -> V.runtime_errorf "unknown List method %s/%d" m (List.length argv)

let arity_error (fd : func_decl) given =
  V.runtime_errorf "%s: arity mismatch (%d expected, %d given)" fd.fd_name
    (List.length fd.fd_params) given

(* Invoke a staged function on an argument list (the general path; call
   sites with a known callee evaluate straight into its frame). *)
let invoke i fn self argv =
  let fr = Array.make fn.fn_slots V.Vunit in
  (match self with None -> () | Some s -> fr.(0) <- s);
  let n = List.length argv in
  if n <> List.length fn.fn_decl.fd_params then arity_error fn.fn_decl n;
  List.iteri (fun k v -> fr.(fn.fn_base + k) <- v) argv;
  fn.fn_run i fr

(* Method dispatch on the receiver's run-time value, after the call has
   been charged. *)
let dispatch i recv m argv =
  match recv with
  | V.Vlist l -> list_method i.cnt l m argv
  | V.Vobject obj -> (
      match Hashtbl.find_opt i.code.c_classes obj.V.ocls with
      | None -> V.runtime_errorf "object of unknown class %s" obj.V.ocls
      | Some (_, methods) -> (
          match Hashtbl.find_opt methods m with
          | None -> V.runtime_errorf "class %s has no method %s" obj.V.ocls m
          | Some fn -> invoke i fn (Some recv) argv))
  | v -> V.runtime_errorf "method call .%s on %s" m (V.type_name v)

(* --- resolution --- *)

(* The static scope while staging: bound locals (innermost first, each
   with its frame slot), the visible globals, the frame-size counter,
   and — for the top level of a pipeline segment — the packet layout
   that segment-level declarations live in. *)
type scope = {
  vars : (string * int) list;
  gvis : string -> int option;
  next : int ref;
  top : (string, int) Hashtbl.t option;
}

type loc = Local of int | Global of int | Unbound

let resolve sc name =
  match List.assoc_opt name sc.vars with
  | Some k -> Local k
  | None -> ( match sc.gvis name with Some j -> Global j | None -> Unbound)

let fresh_slot sc =
  let k = !(sc.next) in
  incr sc.next;
  k

let declare sc name =
  let k =
    match sc.top with
    | Some layout -> Hashtbl.find layout name
    | None -> fresh_slot sc
  in
  ({ sc with vars = (name, k) :: sc.vars }, k)

let nested sc = { sc with top = None }

let seq_of (l : st list) : st =
  match l with
  | [] -> fun _ _ -> ()
  | [ a ] -> a
  | [ a; b ] ->
      fun i s ->
        a i s;
        b i s
  | [ a; b; c ] ->
      fun i s ->
        a i s;
        b i s;
        c i s
  | l ->
      let arr = Array.of_list l in
      fun i s ->
        for k = 0 to Array.length arr - 1 do
          arr.(k) i s
        done

(* The zero value of a declared type; lists are mutable, so each
   declaration gets a fresh one. *)
let zero ty : ex =
  match ty with
  | Tlist _ -> fun _ _ -> V.zero_of_ty ty
  | _ ->
      let v = V.zero_of_ty ty in
      fun _ _ -> v

let rec stmt_returns (st : stmt) =
  match st.s with
  | Sreturn _ -> true
  | Sif (_, a, b) -> List.exists stmt_returns a || List.exists stmt_returns b
  | Sfor (a, _, b, body) ->
      stmt_returns a || stmt_returns b || List.exists stmt_returns body
  | Swhile (_, body) | Sblock body -> List.exists stmt_returns body
  | Sforeach fe -> List.exists stmt_returns fe.fe_body
  | Sdecl _ | Sassign _ | Supdate _ | Sexpr _ | Sbreak | Scontinue -> false

(* --- staging --- *)

let rec expr code sc (e : expr) : ex =
  match e.e with
  | Eint n ->
      let v = V.Vint n in
      fun _ _ -> v
  | Efloat f ->
      let v = V.Vfloat f in
      fun _ _ -> v
  | Ebool b ->
      let v = vbool b in
      fun _ _ -> v
  | Estring str ->
      let v = V.Vstring str in
      fun _ _ -> v
  | Enull -> fun _ _ -> V.Vnull
  | Eruntime_define name -> (
      fun i _ ->
        match Hashtbl.find_opt i.ctx.runtime_defs name with
        | Some v -> V.Vint v
        | None -> V.runtime_errorf "runtime_define %s is not set" name)
  | Evar v -> (
      match resolve sc v with
      | Local k -> fun _ s -> s.(k)
      | Global j -> fun i _ -> i.globals.(j)
      | Unbound -> fun _ _ -> unbound v)
  | Efield (o, f) -> (
      let o = expr code sc o in
      let is_length = f = "length" in
      fun i s ->
        charge_mem i.cnt;
        match o i s with
        | V.Vobject obj -> V.field obj f
        | V.Varray a when is_length -> V.Vint (Array.length a)
        | v -> V.runtime_errorf "field .%s of non-object %s" f (V.type_name v))
  | Eindex (a, ix) ->
      let a = expr code sc a and ix = expr code sc ix in
      fun i s ->
        charge_mem i.cnt;
        let arr = V.as_array (a i s) in
        let idx = V.as_int (ix i s) in
        if idx < 0 || idx >= Array.length arr then
          V.runtime_errorf "array index %d out of bounds [0, %d)" idx
            (Array.length arr);
        arr.(idx)
  | Ebinop (And, a, b) ->
      let a = expr code sc a and b = expr code sc b in
      fun i s ->
        charge_branch i.cnt;
        if V.as_bool (a i s) then b i s else vfalse
  | Ebinop (Or, a, b) ->
      let a = expr code sc a and b = expr code sc b in
      fun i s ->
        charge_branch i.cnt;
        if V.as_bool (a i s) then vtrue else b i s
  (* binary operands are evaluated right to left, like the tree-walker's
     [arith ctx op (eval a) (eval b)] *)
  | Ebinop (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
      let a = expr code sc a and b = expr code sc b and f = arith op in
      fun i s ->
        let vb = b i s in
        f i.cnt (a i s) vb
  | Ebinop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
      let a = expr code sc a and b = expr code sc b in
      fun i s ->
        let vb = b i s in
        compare_vals i.cnt op (a i s) vb
  | Eunop (Neg, a) -> (
      let a = expr code sc a in
      fun i s ->
        match a i s with
        | V.Vint n ->
            charge_int i.cnt;
            V.Vint (-n)
        | V.Vfloat f ->
            charge_float i.cnt;
            V.Vfloat (-.f)
        | v -> V.runtime_errorf "negation of %s" (V.type_name v))
  | Eunop (Not, a) ->
      let a = expr code sc a in
      fun i s ->
        charge_int i.cnt;
        vbool (not (V.as_bool (a i s)))
  | Ecall (f, args) -> stage_call code f (List.map (expr code sc) args)
  | Emethod (o, m, args) ->
      stage_send code m (expr code sc o) (List.map (expr code sc) args)
  | Enew (c, args) -> (
      let args = List.map (expr code sc) args in
      match Hashtbl.find_opt code.c_classes c with
      | None ->
          fun i _ ->
            charge_alloc i.cnt;
            V.runtime_errorf "unknown class %s" c
      | Some (cls, _) ->
          let fields = List.map snd cls.cd_fields in
          if args = [] || List.compare_lengths args fields = 0 then
            let inits =
              if args = [] then [] else List.combine fields args
            in
            fun i s ->
              charge_alloc i.cnt;
              let obj = V.make_object cls in
              List.iter
                (fun (fname, a) -> V.set_field obj fname (a i s))
                inits;
              V.Vobject obj
          else
            fun i s ->
              charge_alloc i.cnt;
              ignore (List.map (fun a -> a i s) args);
              V.runtime_errorf "new %s: %d fields, %d arguments" c
                (List.length fields) (List.length args))
  | Enew_array (t, n) -> (
      let n = expr code sc n in
      let make =
        match t with
        | Tlist _ -> fun n -> Array.init n (fun _ -> V.zero_of_ty t)
        | _ ->
            let z = V.zero_of_ty t in
            fun n -> Array.make n z
      in
      fun i s ->
        charge_alloc i.cnt;
        let n = V.as_int (n i s) in
        if n < 0 then V.runtime_errorf "negative array size %d" n;
        V.Varray (make n))
  | Enew_list _ ->
      fun i _ ->
        charge_alloc i.cnt;
        V.Vlist (V.Vec.create ())
  | Erange (lo, hi) ->
      let lo = expr code sc lo and hi = expr code sc hi in
      fun i s ->
        let lo = V.as_int (lo i s) in
        let hi = V.as_int (hi i s) in
        V.Vrange (lo, hi)

(* Arguments are evaluated left to right, then the call is charged. *)
and stage_call code f (args : ex list) : ex =
  let n = List.length args in
  let eval_all i s = List.map (fun a -> a i s) args in
  match Hashtbl.find_opt code.c_funcs f with
  | Some fn when n <> List.length fn.fn_decl.fd_params ->
      fun i s ->
        ignore (eval_all i s);
        charge_call i.cnt;
        arity_error fn.fn_decl n
  | Some fn -> call_known fn args
  | None -> (
      match (builtin f, args) with
      | Some (B1 op), [ a ] ->
          fun i s ->
            let va = a i s in
            charge_call i.cnt;
            op i.cnt va
      | Some (B2 op), [ a; b ] ->
          fun i s ->
            let va = a i s in
            let vb = b i s in
            charge_call i.cnt;
            op i.cnt va vb
      | Some b, _ ->
          let want =
            match b with B1 _ -> "1 argument" | B2 _ -> "2 arguments"
          in
          fun i s ->
            ignore (eval_all i s);
            charge_call i.cnt;
            V.runtime_errorf "%s expects %s" f want
      | None, _ -> (
          fun i s ->
            let argv = eval_all i s in
            charge_call i.cnt;
            match Hashtbl.find_opt i.ctx.externs f with
            | Some ext -> ext i.ctx argv
            | None -> V.runtime_errorf "unknown function %s" f))

(* Call a known staged function: arguments land straight in its frame. *)
and call_known fn (args : ex list) : ex =
  let args = Array.of_list args in
  fun i s ->
    let fr = Array.make fn.fn_slots V.Vunit in
    for k = 0 to Array.length args - 1 do
      fr.(k) <- args.(k) i s
    done;
    charge_call i.cnt;
    fn.fn_run i fr

(* A method call: the receiver, then the arguments, then the charge,
   then dispatch on the receiver's run-time value.  When exactly one
   class defines [m] with this arity, an object of that class enters the
   method without a table lookup; [add] on a list is matched inline. *)
and stage_send code m (o : ex) (args : ex list) : ex =
  let candidates =
    Hashtbl.fold
      (fun cname (_, methods) acc ->
        match Hashtbl.find_opt methods m with
        | Some fn -> (cname, fn) :: acc
        | None -> acc)
      code.c_classes []
  in
  let n = List.length args in
  match (candidates, m, args) with
  | [ (cname, fn) ], _, _ when List.length fn.fn_decl.fd_params = n ->
      let args = Array.of_list args in
      fun i s ->
        let recv = o i s in
        let fr = Array.make fn.fn_slots V.Vunit in
        for k = 0 to n - 1 do
          fr.(1 + k) <- args.(k) i s
        done;
        charge_call i.cnt;
        (match recv with
        | V.Vobject obj when String.equal obj.V.ocls cname ->
            fr.(0) <- recv;
            fn.fn_run i fr
        | _ -> dispatch i recv m (Array.to_list (Array.sub fr 1 n)))
  | [], "add", [ a ] -> (
      fun i s ->
        let recv = o i s in
        let v = a i s in
        charge_call i.cnt;
        match recv with
        | V.Vlist l ->
            charge_append i.cnt;
            V.Vec.push l v;
            V.Vunit
        | _ -> dispatch i recv m [ v ])
  | _ ->
      fun i s ->
        let recv = o i s in
        let argv = List.map (fun a -> a i s) args in
        charge_call i.cnt;
        dispatch i recv m argv

and read_lvalue code sc (l : lvalue) : ex =
  match l with
  | Lvar v -> expr code sc (mk_expr (Evar v))
  | Lfield (l, f) -> (
      let rd = read_lvalue code sc l in
      fun i s ->
        charge_mem i.cnt;
        match rd i s with
        | V.Vobject obj -> V.field obj f
        | v -> V.runtime_errorf "field .%s of non-object %s" f (V.type_name v))
  | Lindex (l, ix) ->
      let rd = read_lvalue code sc l and ix = expr code sc ix in
      fun i s ->
        charge_mem i.cnt;
        let arr = V.as_array (rd i s) in
        let idx = V.as_int (ix i s) in
        if idx < 0 || idx >= Array.length arr then
          V.runtime_errorf "array index %d out of bounds [0, %d)" idx
            (Array.length arr);
        arr.(idx)

and assign code sc (l : lvalue) : inst -> V.t array -> V.t -> unit =
  match l with
  | Lvar name -> (
      match resolve sc name with
      | Local k ->
          fun i s v ->
            charge_mem i.cnt;
            s.(k) <- v
      | Global j ->
          fun i _ v ->
            charge_mem i.cnt;
            i.globals.(j) <- v
      | Unbound ->
          fun i _ _ ->
            charge_mem i.cnt;
            unbound name)
  | Lfield (l, f) -> (
      let rd = read_lvalue code sc l in
      fun i s v ->
        charge_mem i.cnt;
        match rd i s with
        | V.Vobject obj -> V.set_field obj f v
        | w -> V.runtime_errorf "field write .%s on %s" f (V.type_name w))
  | Lindex (l, ix) ->
      let rd = read_lvalue code sc l and ix = expr code sc ix in
      fun i s v ->
        charge_mem i.cnt;
        let arr = V.as_array (rd i s) in
        let idx = V.as_int (ix i s) in
        if idx < 0 || idx >= Array.length arr then
          V.runtime_errorf "array store index %d out of bounds" idx;
        arr.(idx) <- v

(* --- statements --- *)

and stmt code sc (st : stmt) : scope * st =
  match st.s with
  | Sdecl (ty, name, init) ->
      let init = match init with None -> zero ty | Some e -> expr code sc e in
      let sc, k = declare sc name in
      (sc, fun i s -> s.(k) <- init i s)
  | Sassign (l, e) ->
      let e = expr code sc e and set = assign code sc l in
      ( sc,
        fun i s ->
          let v = e i s in
          set i s v )
  | Supdate (Lindex (base, ix), op, e) ->
      (* resolve the place once: index expressions must not be
         re-evaluated (they may have side effects) *)
      let e = expr code sc e
      and rd = read_lvalue code sc base
      and ix = expr code sc ix
      and f = arith op in
      ( sc,
        fun i s ->
          let v = e i s in
          charge_mem i.cnt;
          let arr = V.as_array (rd i s) in
          let idx = V.as_int (ix i s) in
          if idx < 0 || idx >= Array.length arr then
            V.runtime_errorf "array update index %d out of bounds" idx;
          charge_mem i.cnt;
          arr.(idx) <- f i.cnt arr.(idx) v )
  | Supdate (l, op, e) ->
      let e = expr code sc e
      and rd = read_lvalue code sc l
      and set = assign code sc l
      and f = arith op in
      ( sc,
        fun i s ->
          let v = e i s in
          let old = rd i s in
          set i s (f i.cnt old v) )
  | Sif (c, th, el) ->
      let c = expr code sc c
      and th = block code sc th
      and el = block code sc el in
      ( sc,
        fun i s ->
          charge_branch i.cnt;
          if V.as_bool (c i s) then th i s else el i s )
  | Sfor (init, cond, step, body) ->
      let sc_for, init = stmt code (nested sc) init in
      let cond = expr code sc_for cond in
      let body = block code sc_for body in
      let _, step = stmt code sc_for step in
      ( sc,
        fun i s ->
          init i s;
          try
            while
              charge_branch i.cnt;
              V.as_bool (cond i s)
            do
              (try body i s with Continue_loop -> ());
              step i s
            done
          with Break_loop -> () )
  | Swhile (cond, body) ->
      let cond = expr code sc cond and body = block code sc body in
      ( sc,
        fun i s ->
          try
            while
              charge_branch i.cnt;
              V.as_bool (cond i s)
            do
              try body i s with Continue_loop -> ()
            done
          with Break_loop -> () )
  | Sforeach { fe_var; fe_coll; fe_where; fe_body } ->
      let coll = expr code sc fe_coll in
      let sc_elt, k = declare (nested sc) fe_var in
      let where = Option.map (expr code sc_elt) fe_where in
      let body = block code sc_elt fe_body in
      ( sc,
        fun i s ->
          let coll = coll i s in
          let run_elt v =
            charge_branch i.cnt;
            s.(k) <- v;
            let selected =
              match where with None -> true | Some w -> V.as_bool (w i s)
            in
            if selected then try body i s with Continue_loop -> ()
          in
          try
            match coll with
            | V.Vrange (lo, hi) ->
                for j = lo to hi - 1 do
                  run_elt (V.Vint j)
                done
            | V.Vlist l -> V.Vec.iter run_elt l
            | V.Varray a -> Array.iter run_elt a
            | v -> V.runtime_errorf "foreach over %s" (V.type_name v)
          with Break_loop -> () )
  | Sexpr e ->
      let e = expr code sc e in
      (sc, fun i s -> ignore (e i s))
  | Sreturn None -> (sc, fun _ _ -> raise_notrace (Return_value V.Vunit))
  | Sreturn (Some e) ->
      let e = expr code sc e in
      (sc, fun i s -> raise_notrace (Return_value (e i s)))
  | Sbreak -> (sc, fun _ _ -> raise_notrace Break_loop)
  | Scontinue -> (sc, fun _ _ -> raise_notrace Continue_loop)
  | Sblock body -> (sc, block code sc body)

(* A statement sequence in [sc]: declarations extend the scope of the
   statements after them. *)
and seq code sc stmts : scope * st =
  let sc, rev =
    List.fold_left
      (fun (sc, acc) st ->
        let sc, f = stmt code sc st in
        (sc, f :: acc))
      (sc, []) stmts
  in
  (sc, seq_of (List.rev rev))

and block code sc stmts = snd (seq code (nested sc) stmts)

(* Stage a function or method body into its entry.  A body whose only
   [return] is its last statement runs without a handler. *)
let stage_fn code fn ~self =
  let sc = { vars = []; gvis = (fun _ -> None); next = ref 0; top = None } in
  let sc = if self then fst (declare sc "this") else sc in
  let sc =
    List.fold_left
      (fun sc (_, p) -> fst (declare sc p))
      sc fn.fn_decl.fd_params
  in
  let body = fn.fn_decl.fd_body in
  let run =
    match List.rev body with
    | { s = Sreturn (Some e); _ } :: rest
      when not (List.exists stmt_returns rest) ->
        let sc, prefix = seq code (nested sc) (List.rev rest) in
        let e = expr code sc e in
        fun i s ->
          prefix i s;
          e i s
    | _ when not (List.exists stmt_returns body) ->
        let body = block code sc body in
        fun i s ->
          body i s;
          V.Vunit
    | _ -> (
        let body = block code sc body in
        fun i s ->
          try
            body i s;
            V.Vunit
          with Return_value v -> v)
  in
  fn.fn_slots <- !(sc.next);
  fn.fn_run <- run

(* Resolve and stage a whole program: functions, methods, global
   initialisers and the packet count.  The pipelined body is staged
   separately ([stage_pipeline]) because generated filters run it
   segment by segment. *)
let stage (prog : program) : code =
  let entry ~self fd =
    {
      fn_decl = fd;
      fn_base = (if self then 1 else 0);
      fn_slots = 0;
      fn_run = (fun _ _ -> invalid_arg "Interp: function not staged");
    }
  in
  (* first declaration wins, like [Ast.find_func]/[find_class] *)
  let add_first tbl k v =
    if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v
  in
  let code =
    {
      c_prog = prog;
      c_funcs = Hashtbl.create 16;
      c_classes = Hashtbl.create 16;
      c_globals = Hashtbl.create 16;
      c_init = [||];
      c_count = (fun _ _ -> V.Vunit);
    }
  in
  List.iter
    (fun fd -> add_first code.c_funcs fd.fd_name (entry ~self:false fd))
    prog.funcs;
  List.iter
    (fun cd ->
      let methods = Hashtbl.create 8 in
      List.iter
        (fun md -> add_first methods md.fd_name (entry ~self:true md))
        cd.cd_methods;
      add_first code.c_classes cd.cd_name (cd, methods))
    prog.classes;
  Hashtbl.iter (fun _ fn -> stage_fn code fn ~self:false) code.c_funcs;
  Hashtbl.iter
    (fun _ (_, methods) ->
      Hashtbl.iter (fun _ fn -> stage_fn code fn ~self:true) methods)
    code.c_classes;
  (* globals: one index per name; each initialiser sees the globals
     declared before it *)
  List.iter
    (fun g ->
      add_first code.c_globals g.gd_name (Hashtbl.length code.c_globals))
    prog.globals;
  let global_scope visible =
    {
      vars = [];
      gvis = (fun name -> List.assoc_opt name visible);
      next = ref 0;
      top = None;
    }
  in
  let visible, init =
    List.fold_left
      (fun (visible, acc) g ->
        let init =
          match g.gd_init with
          | None -> zero g.gd_ty
          | Some e -> expr code (global_scope visible) e
        in
        let j = Hashtbl.find code.c_globals g.gd_name in
        ((g.gd_name, j) :: visible, (j, init) :: acc))
      ([], []) prog.globals
  in
  code.c_init <- Array.of_list (List.rev init);
  code.c_count <- expr code (global_scope visible) prog.pipeline.pd_count;
  code

(* A running copy: evaluate the global initialisers in order (charged to
   [ctx]); reduction globals accumulate across packets. *)
let instantiate code ctx =
  let i =
    {
      code;
      ctx;
      cnt = ctx.counter;
      globals = Array.make (Hashtbl.length code.c_globals) V.Vunit;
    }
  in
  Array.iter (fun (j, init) -> i.globals.(j) <- init i [||]) code.c_init;
  i

let global_value i name =
  match Hashtbl.find_opt i.code.c_globals name with
  | Some j -> i.globals.(j)
  | None -> unbound name

let method_call i recv m argv =
  charge_call i.cnt;
  dispatch i recv m argv

let call_method ctx recv m argv =
  let i = { code = stage ctx.prog; ctx; cnt = ctx.counter; globals = [||] } in
  method_call i recv m argv

(* --- the pipelined body --- *)

(* The packet names bound at one program point, with their slots. *)
type view = (string, int) Hashtbl.t

type pipeline = {
  p_layout : (string, int) Hashtbl.t; (* packet name -> slot *)
  p_pd : int; (* slot of the packet variable *)
  p_size : int;
  p_segs : st array;
  p_base : view; (* the packet variable alone *)
  p_entry : view array;
  p_exit : view array;
}

type frame = V.t array

let view_of vars : view =
  let v = Hashtbl.create 16 in
  List.iter
    (fun (name, k) -> if not (Hashtbl.mem v name) then Hashtbl.add v name k)
    vars;
  v

let stage_pipeline code ~entry (segs : stmt list array) =
  let pd_var = code.c_prog.pipeline.pd_var in
  let layout = Hashtbl.create 32 in
  let add name =
    if not (Hashtbl.mem layout name) then
      Hashtbl.add layout name (Hashtbl.length layout)
  in
  add pd_var;
  Array.iteri
    (fun k stmts ->
      Option.iter (List.iter add) (entry k);
      List.iter
        (fun st -> match st.s with Sdecl (_, name, _) -> add name | _ -> ())
        stmts)
    segs;
  let next = ref (Hashtbl.length layout) in
  let gvis = Hashtbl.find_opt code.c_globals in
  let bound names =
    List.map (fun n -> (n, Hashtbl.find layout n)) (pd_var :: names)
  in
  let n = Array.length segs in
  let p_segs = Array.make n (fun _ _ -> ())
  and p_entry = Array.make n (view_of [])
  and p_exit = Array.make n (view_of []) in
  ignore
    (Array.fold_left
       (fun (k, vars) stmts ->
         let vars =
           match entry k with Some names -> bound names | None -> vars
         in
         let sc, f = seq code { vars; gvis; next; top = Some layout } stmts in
         p_segs.(k) <- f;
         p_entry.(k) <- view_of vars;
         p_exit.(k) <- view_of sc.vars;
         (k + 1, sc.vars))
       (0, bound []) segs);
  {
    p_layout = layout;
    p_pd = Hashtbl.find layout pd_var;
    p_size = !next;
    p_segs;
    p_base = view_of (bound []);
    p_entry;
    p_exit;
  }

let packet_frame p : frame = Array.make p.p_size V.Vunit
let start_packet p (fr : frame) packet = fr.(p.p_pd) <- V.Vint packet

let bind p (fr : frame) name v =
  match Hashtbl.find_opt p.p_layout name with
  | Some k -> fr.(k) <- v
  | None -> unbound name

let run_segment p i (fr : frame) k = p.p_segs.(k) i fr
let base_view p = p.p_base
let entry_view p k = p.p_entry.(k)
let exit_view p k = p.p_exit.(k)

let lookup (v : view) i (fr : frame) name =
  match Hashtbl.find_opt v name with
  | Some k -> fr.(k)
  | None -> global_value i name

(* --- reference whole-program execution --- *)

(* Run the whole pipelined loop sequentially: the reference semantics
   against which every decomposed execution is checked. *)
let run_reference ctx =
  let code = stage ctx.prog in
  let i = instantiate code ctx in
  let n = V.as_int (code.c_count i [||]) in
  let p =
    stage_pipeline code
      ~entry:(fun _ -> Some [])
      [| ctx.prog.pipeline.pd_body |]
  in
  for packet = 0 to n - 1 do
    let fr = packet_frame p in
    start_packet p fr packet;
    run_segment p i fr 0
  done;
  i
