(** Shared probe machinery for the joins ({!Mjoin}, {!Outer_join},
    {!Window_join}): a spanning walk of the operator-level join graph from
    each input, compiled to a program that extends assignments against
    hash-indexed join states. *)

(** One step of a probe walk: visit [step_input], hash-probing on the first
    atom connecting it to an already-bound input and verifying the rest. *)
type step = {
  step_input : string;
  key_atoms : Relational.Predicate.atom list;
  check_atoms : Relational.Predicate.atom list;
}

(** [orders names predicates] precomputes, per input, the walk visiting all
    other inputs (joined-first; a disconnected remainder degrades to a scan
    step). *)
val orders :
  string list -> Relational.Predicate.t -> (string * step list) list

(** A probe walk compiled to integer slot ids: input names, attribute
    names and index lookups are resolved once at plan time, so the
    per-push loop touches only arrays and pre-resolved
    {!Join_state.handle}s. *)
type prog

(** [compile ~names ~schemas ~states ~steps] compiles one walk. [names],
    [schemas] and [states] are parallel arrays over the operator's inputs
    (slot order); [steps] is the walk from {!orders}. Resolving each keyed
    step's handle builds the hash index up front instead of on first
    probe. *)
val compile :
  names:string array ->
  schemas:Relational.Schema.t array ->
  states:Join_state.t array ->
  steps:step list ->
  prog

(** [run_compiled prog tuple ~tick ~emit] walks [prog] with the origin
    slot bound to [tuple] and calls [emit asg ticks] once per complete
    assignment: [asg] is the slot-indexed tuple array and [ticks], parallel
    to it, each tuple's insertion tick ([tick] for the origin), from which
    a caller can compute a result's latency span. Both arrays are reused
    across emissions — [emit] must copy what it keeps. *)
val run_compiled :
  prog ->
  Relational.Tuple.t ->
  tick:int ->
  emit:(Relational.Tuple.t array -> int array -> unit) ->
  unit
