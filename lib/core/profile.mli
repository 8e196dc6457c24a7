(** Workload profiling.

    The cost model needs, per candidate filter, the operations executed
    per packet, and per candidate boundary, the communication volume.
    Both are measured by executing the segments on sample packets with
    the instrumented interpreter — the paper's static operation-count
    model (§4.3) with measured trip counts, which keeps data-dependent
    selectivity (the isosurface cube test) honest. *)

open Lang

type t = {
  profile : Costmodel.profile;
  boundary_bytes : float array;
      (** bytes crossing each boundary per packet, indexed like
          {!Reqcomm.reqcomm_into} *)
  final_bytes : float;  (** packed size of the final reduction state *)
  ops : Opcount.t array;
      (** raw operation counts of each segment, summed over the samples *)
}

(** [run prog segments rc ~externs ~runtime_defs ~num_packets ()]
    profiles by executing the [samples] packets end-to-end.
    [num_packets] is the N of the cost formula.  [final_copies] is the
    number of transparent copies that will hold reduction partials: each
    ships its partial at end of stream, so the final-result volume is
    amortized as copies x bytes / N. *)
val run :
  Ast.program ->
  Boundary.segment list ->
  Reqcomm.t ->
  externs:(string * Interp.extern_fn) list ->
  runtime_defs:(string * int) list ->
  num_packets:int ->
  ?samples:int list ->
  ?weights:Opcount.weights ->
  ?final_copies:int ->
  unit ->
  t
