(** Shared execution of a registry of continuous join queries — the
    engine-layer DAG that {!Core.Planner.plan_shared} describes.

    The single-query {!Executor} compiles a {e tree}; here the compiled
    object is a {e DAG}: each committed shared group becomes one operator
    tree (one join state, one punctuation store) whose root output — data
    results {e and} propagated punctuations — fans out to every subscribing
    query. A subscriber with residual streams joins the shared output with
    them in its own residual tree; the shared root is presented to that
    tree as a {e pseudo input stream} whose schema is the shared output
    schema and whose punctuation schemes are the derived schemes the shared
    block provably emits (see {!Executor.derived_schemes}). A fully covered
    subscriber consumes the shared output directly. Queries the planner
    left unshared run their independent trees unchanged.

    Per-query answers are byte-equal to independent execution: data outputs
    of a join do not depend on purge policy or punctuation handling (purge
    only removes provably unmatchable state), so sharing changes {e where}
    state lives and {e how much} of it there is, never what is emitted.
    {!Executor.output_hash} digests are compared by the tests and CI.

    Operator names carry their owner: residual/independent operators of
    query [q] are named [q/J1], [q/J2], …; shared operators [shared:G1/J1].
    The observability plane splits these into a [query] label
    ({!Obs.Openmetrics}), so per-query rates break out while shared state
    is counted once, under its group's name.

    Contracts are not threaded through multi-query execution yet: the
    [contract] field of the supplied config is ignored. *)

type t

(** [create ?config ?share registry] — plan (via
    {!Core.Planner.plan_shared}) and compile the DAG. [config] is the
    compile configuration every unit shares — its [op_prefix] is
    overridden per unit and its [contract] is ignored; its [telemetry]
    handle is shared by all operators. [share:false] compiles every query
    independently (the baseline).
    @raise Invalid_argument when registered queries declare the same
    stream name with conflicting schemas. *)
val create :
  ?config:Executor.Config.t -> ?share:bool -> Query.Query_registry.t -> t

val plan : t -> Core.Planner.multi_plan
val registry : t -> Query.Query_registry.t

(** [stream_defs t] — the union of all registered queries' stream
    definitions (deduped by name); the input surface of the DAG. *)
val stream_defs : t -> Streams.Stream_def.t list

(** [feed_element t e] — push one raw-stream element through the DAG:
    every shared group reading [e]'s stream consumes it once, the group
    outputs fan out to subscribers, residual/independent trees consume
    [e] directly. Returns this tick's per-query outputs (queries with no
    output this tick are omitted). *)
val feed_element : t -> Streams.Element.t -> (string * Streams.Element.t list) list

(** [flush t] — end-of-input: flush shared trees, fan their flush outputs
    to subscribers, then flush residual/independent trees. Call once. *)
val flush : t -> (string * Streams.Element.t list) list

(** Per-query answer channel of a {!run}. *)
type query_result = {
  outputs : Streams.Element.t list;  (** in emission order *)
  emitted : int;  (** data tuples *)
  hash : string;  (** {!Executor.output_hash} of [outputs] *)
}

type result = {
  per_query : (string * query_result) list;  (** in registry order *)
  metrics : Metrics.t;  (** aggregate state series across the whole DAG *)
  consumed : int;
  emitted : int;  (** data tuples across all queries *)
}

(** [run ?sample_every ?label ?exporter t elements] — drive the DAG from
    one interleaved sequence, mirroring {!Executor.run}: elements of
    streams no query reads are ignored but still counted as ticks, every
    [sample_every] ticks the run records the same {!Grid} point a
    sequential run does (one part per tree), and [Run_start]/[Run_end]
    frame the trace. Shared state is counted once in every total. *)
val run :
  ?sample_every:int ->
  ?label:string ->
  ?exporter:Obs.Exporter.t ->
  t ->
  Streams.Element.t Seq.t ->
  result

(** [total_state_bytes t] — approximate join-state bytes across the DAG,
    shared state counted once. *)
val total_state_bytes : t -> int

(** [state_breakdown t] — per-operator state grouped by owner: shared
    groups first (owner ["shared:G1"], …), then queries in registry order
    (owner = qid). Shared operators appear exactly once. *)
val state_breakdown : t -> (string * Executor.breakdown list) list

(** [report ?meta t result] — the machine-readable run report over {e all}
    operators of the DAG (shared ones once); replaying the telemetry
    trace reproduces its counters, so [pstream_obs verify] accepts
    shared-run traces. Adds a ["queries"] meta entry and per-query
    consumed/emitted/hash entries. *)
val report :
  ?meta:(string * Obs.Json.t) list -> t -> result -> Obs.Report.t

type sharded_result = {
  s_per_query : (string * query_result) list;
  s_consumed : int;
  s_emitted : int;
  s_shards : int;
}

(** [run_sharded ?config ?share ?batch_cap ~shards registry elements] —
    the sharded multi-query driver: one {!create}d DAG per shard (each
    with its own state and a null telemetry handle), one
    {!Shard_router.create_multi} routing table over the union of all
    queries, elements shipped in batches over {!Spsc} queues to worker
    domains, per-query outputs merged deterministically by (sequence,
    shard, emission rank). Per-query output hashes equal the sequential
    {!run}'s on key-aligned workloads — and on arbitrary workloads when
    the router is exact ({!Shard_router.exact_for} on each query's
    streams).
    @raise Invalid_argument when [shards <= 0] or
    {!Shard_router.sound_for_shared} rejects the subscriber set. *)
val run_sharded :
  ?config:Executor.Config.t ->
  ?share:bool ->
  ?batch_cap:int ->
  shards:int ->
  Query.Query_registry.t ->
  Streams.Element.t Seq.t ->
  sharded_result
