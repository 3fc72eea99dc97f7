(** Synthetic query, scheme and trace generators — the raw material for the
    property tests and the scaling benchmarks.

    The generated queries have integer attributes. The trace generators
    emit each generated integer in its attribute's declared type ([k],
    ["k"] or [k.0] for int, str and float), and every generator is
    seeded, so any failing random instance can be reproduced from its
    configuration. *)

type query_config = {
  n_streams : int;
  extra_edges : int;  (** join-graph edges beyond the spanning tree *)
  attrs_per_stream : int;
  single_scheme_prob : float;
      (** per join attribute: chance of a single-attribute scheme *)
  multi_scheme_prob : float;
      (** per stream with ≥ 2 join attributes: chance of one two-attribute
          scheme *)
  ordered_scheme_prob : float;
      (** per join attribute: chance the single-attribute scheme generated
          for it is an ordered (watermark) scheme instead of an equality
          one *)
  seed : int;
}

val default_query_config : query_config

(** [random_query config] — a connected CJQ over [n_streams] streams with
    randomly placed punctuation schemes; may be safe or unsafe. *)
val random_query : query_config -> Query.Cjq.t

(** [chain_query ~n ()] — the deterministic safe scaling family:
    [S1 -a- S2 -a- ... -a- Sn], every link attribute punctuatable on both
    sides. Used by the complexity benches (C1, C2). *)
val chain_query : n:int -> unit -> Query.Cjq.t

(** [cycle_query ~n ()] — Figure 5's shape generalized: a directed scheme
    cycle, safe as one MJoin but with no safe binary tree. *)
val cycle_query : n:int -> unit -> Query.Cjq.t

(** Raised by the trace generators for a [bool] attribute, which cannot
    carry an integer key: the stream and the attribute. *)
exception Unkeyable_attribute of { stream : string; attr : string }

type trace_config = {
  rounds : int;
  tuples_per_round : int;  (** join fan-in per round; 1 output per key *)
  punct_lag : int;  (** rounds between a key's data and its punctuations *)
  trace_seed : int;
}

val default_trace_config : trace_config

(** [round_trace query config] — the round-based workload: in round [r],
    every stream emits one tuple per key (all join attributes equal to the
    key, so each key yields exactly one full match), and all instantiable
    punctuations for round [r] arrive [punct_lag] rounds later. Safe queries
    keep bounded state on this input; unsafe ones cannot purge some state
    no matter how generously it punctuates.

    The expected number of full-query results is
    [rounds * tuples_per_round]. *)
val round_trace : Query.Cjq.t -> trace_config -> Streams.Trace.t

(** [round_trace_defs defs config] — {!round_trace} over an explicit stream
    set: the multi-query driver feeds several queries from one input, so the
    workload is generated from the union of their stream definitions rather
    than from any single query. *)
val round_trace_defs :
  Streams.Stream_def.t list -> trace_config -> Streams.Trace.t

(** [random_trace query ~elements_per_stream ~value_range ~punct_prob ~seed]
    — arbitrary-selectivity input: uniformly random tuples; for each scheme
    and each value combination that occurs, a punctuation is placed right
    after the combination's last occurrence with probability [punct_prob].
    Well-formed by construction. Ordered (watermark) schemes are skipped:
    random values are not monotone, so no watermark could legally be
    placed. *)
val random_trace :
  Query.Cjq.t ->
  elements_per_stream:int ->
  value_range:int ->
  punct_prob:float ->
  seed:int ->
  Streams.Trace.t

(** [brute_force_results query trace] — the reference answer: the full
    multi-way join of all data tuples in [trace], computed with
    {!Relational.Relation}. Returns the result count. *)
val brute_force_results : Query.Cjq.t -> Streams.Trace.t -> int
