(** PipeLang interpreter with operation accounting: resolve, stage, run.

    A program is resolved and staged once ({!stage}): every local gets a
    slot in its function's frame, every global an index into a per-copy
    globals array, and every function, method, global initialiser and
    code segment becomes an OCaml closure.  Staged code is immutable and
    shared by every copy and domain; a running copy owns its {!inst}
    (context, counter, globals) and its frames.

    Two uses: reference execution of whole programs (the sequential
    semantics every decomposed execution is checked against), and
    execution of individual filter code segments by the generated
    filters, over packet frames unpacked from stream buffers.  Every
    executed operation is charged to the context's counter. *)

type ctx = {
  prog : Ast.program;
  externs : (string, extern_fn) Hashtbl.t;
  runtime_defs : (string, int) Hashtbl.t;
  counter : Opcount.t;
}

(** Host-provided functions receive the context so they can charge
    operation costs (e.g. per byte read) and consult runtime defines.
    They are looked up in the calling copy's context by name. *)
and extern_fn = ctx -> Value.t list -> Value.t

val create_ctx :
  ?externs:(string * extern_fn) list ->
  ?runtime_defs:(string * int) list ->
  Ast.program ->
  ctx

val set_runtime_define : ctx -> string -> int -> unit

(** {1 Staged programs} *)

(** A resolved and staged program. *)
type code

(** A running copy of a staged program: its context and its globals. *)
type inst

val stage : Ast.program -> code

(** Evaluate the global initialisers in order, charging [ctx]; reduction
    globals then accumulate across packets. *)
val instantiate : code -> ctx -> inst

(** A global of a copy.
    @raise Value.Runtime_error ["unbound variable ..."] for an unknown
    name. *)
val global_value : inst -> string -> Value.t

(** Invoke a method on an object or list value (charged as a call). *)
val method_call : inst -> Value.t -> string -> Value.t list -> Value.t

(** {!method_call} for a bare context: stages [ctx.prog] first. *)
val call_method : ctx -> Value.t -> string -> Value.t list -> Value.t

(** {1 The pipelined body} *)

(** Code segments of the pipelined body staged over one packet frame
    layout: the packet variable, every segment-level declaration, and
    one slot per nested declaration site. *)
type pipeline

(** A packet frame of a {!pipeline}, one per packet. *)
type frame

(** The packet names bound at one program point, for lookups by name. *)
type view

(** [stage_pipeline code ~entry segs]: segment [k] starts with the
    packet variable plus [names] bound when [entry k = Some names] (the
    values a filter unpacks), and otherwise with everything bound after
    segment [k-1]. *)
val stage_pipeline :
  code -> entry:(int -> string list option) -> Ast.stmt list array -> pipeline

val packet_frame : pipeline -> frame

(** Bind the packet variable. *)
val start_packet : pipeline -> frame -> int -> unit

(** Bind a packet name (an unpacked value) by name.
    @raise Value.Runtime_error for a name outside the layout. *)
val bind : pipeline -> frame -> string -> Value.t -> unit

(** Execute segment [k]. *)
val run_segment : pipeline -> inst -> frame -> int -> unit

(** Names bound before / after segment [k], and with only the packet
    variable bound. *)
val entry_view : pipeline -> int -> view

val base_view : pipeline -> view

val exit_view : pipeline -> int -> view

(** Read a name at a program point: a bound packet name, else a global.
    @raise Value.Runtime_error ["unbound variable ..."] otherwise. *)
val lookup : view -> inst -> frame -> string -> Value.t

(** {1 Reference execution} *)

(** Run the whole pipelined loop sequentially: the reference semantics.
    Returns the copy after the last packet. *)
val run_reference : ctx -> inst
