(** Continuous join queries — the paper's [CJQ(ℑ, ℘)] (§2.2): a set of data
    streams plus conjunctive equi-join predicates between pairs of them. *)

type t

(** Join semantics of the query. [Inner] is the paper's CJQ; the outer and
    anti variants preserve unmatched tuples of one or both sides, emitted
    only once a partner punctuation proves matchlessness (see
    {!Engine.Outer_join}). Non-[Inner] kinds are binary: the first declared
    stream is the left side, the second the right. *)
type join_kind = Inner | Left_outer | Right_outer | Full_outer | Anti

val kind_to_string : join_kind -> string

(** [kind_of_string s] parses ["inner" | "left" | "right" | "full" |
    "anti"]. *)
val kind_of_string : string -> join_kind option

exception Invalid of string

(** [make ?kind defs preds] validates and builds a query:
    - at least two streams, all distinct (exactly two when [kind] is not
      [Inner]);
    - every atom references declared streams and attributes;
    - joined attributes have equal types;
    - the join graph is connected (no cross products).
    [kind] defaults to [Inner].
    @raise Invalid otherwise, with a human-readable reason. *)
val make :
  ?kind:join_kind -> Streams.Stream_def.t list -> Relational.Predicate.t -> t

(** The query's join semantics. *)
val kind : t -> join_kind

val stream_defs : t -> Streams.Stream_def.t list

(** [union_defs queries] — the stream definitions of all [queries],
    deduped by name in first-seen order: the input surface of a
    multi-query run.
    @raise Invalid_argument when two queries declare one stream name with
    different schemas. *)
val union_defs : t list -> Streams.Stream_def.t list

val stream_names : t -> string list
val n_streams : t -> int
val predicates : t -> Relational.Predicate.t
val def : t -> string -> Streams.Stream_def.t
val schema_of : t -> string -> Relational.Schema.t

(** [scheme_set t] is the scheme set ℜ declared by the query's streams. *)
val scheme_set : t -> Streams.Scheme.Set.t

val join_graph : t -> Join_graph.t

(** [restrict t names] is the sub-query induced on [names] (atoms within the
    subset kept). Used to treat an operator of a plan as its own query.
    @raise Invalid when fewer than two names or the induced graph is
    disconnected. *)
val restrict : t -> string list -> t

val pp : Format.formatter -> t -> unit
