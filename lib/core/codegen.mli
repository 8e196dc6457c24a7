(** Filter code generation (§5).

    Given a decomposition (segment to computing unit), builds DataCutter
    filters.  Each generated filter, per unit of work, unpacks the
    boundary's ReqComm values from the input buffer, executes its code
    segments (staged once per plan, shared by every copy), and packs the next
    boundary's ReqComm values into the output buffer.

    Reduction globals are persistent per-copy filter state; each copy
    ships its partial as an end-of-stream payload, filters sharing the
    global merge it into their own partial, others forward it, and the
    sink merges everything, so the authoritative result ends on the
    viewing node C_m. *)

open Lang
open Datacutter

type plan = {
  prog : Ast.program;
  segments : Boundary.segment array;
  rc : Reqcomm.t;
  tyenv : Tyenv.t;
  assignment : Costmodel.assignment;
  m : int;
  cuts : int array;
      (** [cuts.(u-1)]: first segment assigned to a unit >= u *)
  layouts : Packing.layout array;
      (** layout of the stream entering unit u at index u-1 (entry 0
          unused) *)
  num_packets : int;
  externs : (string * Interp.extern_fn) list;
  runtime_defs : (string * int) list;
  code : Interp.code;  (** the program, staged once per plan *)
  pipe : Interp.pipeline;
      (** the segments, staged once per plan over one packet layout;
          each unit's first segment starts from its unpacked names *)
}

val make_plan :
  ?layout_mode:Packing.mode ->
  Ast.program ->
  Boundary.segment list ->
  Reqcomm.t ->
  assignment:Costmodel.assignment ->
  m:int ->
  num_packets:int ->
  externs:(string * Interp.extern_fn) list ->
  runtime_defs:(string * int) list ->
  plan

(** Segments placed on unit [u] (1-based). *)
val segments_of_unit : plan -> int -> Boundary.segment list

(** Reduction globals held as partial state by unit [u]'s segments. *)
val reduc_updated : plan -> int -> Set.Make(String).t

(** The data-source filter for unit 1; copy [k] of [width] handles the
    packets congruent to k modulo width (declustered data nodes). *)
val make_source : plan -> width:int -> int -> Filter.source

(** An inner or sink filter for unit [u] in 2..m.  The sink (u = m) calls
    [on_result] with the merged reduction globals at finalize. *)
val make_filter :
  plan ->
  u:int ->
  ?on_result:((string * Value.t) list -> unit) ->
  int ->
  Filter.t

(** Assemble a runnable topology for the plan; [widths] gives the
    transparent copies per unit (the sink must have width 1).  Returns
    the topology and a handle yielding the sink's merged reduction
    globals after a run. *)
val build_topology :
  plan ->
  widths:int array ->
  powers:float array ->
  bandwidths:float array ->
  ?latency:float ->
  unit ->
  Topology.t * (unit -> (string * Value.t) list)
