(** The chained purge strategy (§3.2.1, generalized in §4.2).

    To purge a tuple [t] of stream [S], walk the punctuation graph from [S]
    in reachability order: each step pins one more stream [q] by collecting
    the punctuations whose values come from the joinable tuples
    [T_t[Υ_src]] of the already-pinned streams. This module derives the
    static walk (a purge {!plan}) from the generalized punctuation graph,
    and evaluates it dynamically: which punctuations are required for a
    given tuple (§3.2's [P_t[S_i]]), and whether a punctuation store already
    covers them (the engine's runtime purge test).

    When a scheme pins several attributes from different sources, the
    required value combinations are the Cartesian product of the per-source
    joinable values — a finite superset of the exact semijoin (sound,
    possibly conservative; exact along single-attribute chains). *)

type pin = {
  attr : string;  (** punctuatable attribute of the step's stream *)
  source : string;  (** already-pinned stream supplying values *)
  source_attr : string;  (** its side of the join predicate *)
}

type step = {
  target : string;  (** stream whose punctuations this step consumes *)
  scheme : Streams.Scheme.t;
  pins : pin list;
}

type plan = { root : string; steps : step list }

(** [derive names preds schemes ~root] is the purge plan for tuples of
    [root], or [None] when [root] does not reach every other stream in the
    GPG (Theorem 3: not purgeable). Steps are in firing order: every pin's
    source is the root or the target of an earlier step. *)
val derive :
  string list ->
  Relational.Predicate.t ->
  Streams.Scheme.Set.t ->
  root:string ->
  plan option

(** [derive_all names preds schemes] is [derive ~root] for every root in
    [names], in order, from one GPG. *)
val derive_all :
  string list ->
  Relational.Predicate.t ->
  Streams.Scheme.Set.t ->
  (string * plan option) list

(** [joinable step per_pin] — the tuples of [step.target]'s state whose
    every pinned attribute takes one of the pin's values ([T_t[Υ_target]]
    under the product approximation). A walk calls it only for targets
    that a later step pins from. *)
type joinable =
  step -> (pin * Relational.Value.t list) list -> Relational.Tuple.t list

(** [joinable_in states] — {!joinable} by filtering the finite relation
    [states target]. *)
val joinable_in : (string -> Relational.Relation.t) -> joinable

(** [required_punctuations plan ~states ~root_tuple] is §3.2's
    [P_t[S_i]] for every step: the concrete punctuations that, if they all
    arrived, would prove [root_tuple] dead. [states] maps each non-root
    stream to its current join state. *)
val required_punctuations :
  plan ->
  states:(string -> Relational.Relation.t) ->
  root_tuple:Relational.Tuple.t ->
  (string * Streams.Punctuation.t list) list

(** [tuple_purgeable plan ~joinable ~covered ~root_tuple] decides whether
    every required punctuation is already covered: [covered ~stream
    bindings] must answer "does some received punctuation of [stream]
    guarantee no future tuple matches [bindings]?" (attribute-index /
    value pairs). Join states are read through [joinable]
    ({!joinable_in} over relations, index probes in the engine). *)
val tuple_purgeable :
  plan ->
  joinable:joinable ->
  covered:(stream:string -> (int * Relational.Value.t) list -> bool) ->
  root_tuple:Relational.Tuple.t ->
  bool

val pp_plan : Format.formatter -> plan -> unit
