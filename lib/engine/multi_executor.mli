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

    A DAG is also the unit {!Parallel_executor} shards: each shard holds
    one, whether {!create} compiled it from a registry or {!of_plan} from a
    single plan ({!feed_batch} and {!flush} are what a shard runs).

    Contracts are not threaded through multi-query execution yet: {!create}
    ignores the [contract] field of the supplied config. *)

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

(** [of_plan ?config ~qid query plan] — the one-unit DAG: [query]
    compiled under [plan] with [config] as given (operator names keep
    their [op_prefix], the contract is kept), answering as query [qid]. *)
val of_plan :
  ?config:Executor.Config.t -> qid:string -> Query.Cjq.t -> Query.Plan.t -> t

val plan : t -> Core.Planner.multi_plan
val registry : t -> Query.Query_registry.t

(** [stream_defs t] — the union of all registered queries' stream
    definitions (deduped by name); the input surface of the DAG. *)
val stream_defs : t -> Streams.Stream_def.t list

(** [feed_batch t run] — push a run of raw-stream elements through the
    DAG: every shared group reading the run's streams consumes them once
    through {!Executor.feed_batch} (which skips streams outside its
    leaves), residual/independent trees consume the run directly, and a
    residual tree then takes its group's outputs as one more run. The
    order within every input stream is kept, so per-query data outputs do
    not depend on where the input is cut. Returns the run's per-query
    outputs (queries with no output are omitted). For a one-unit DAG this
    is exactly {!Executor.feed_batch}. *)
val feed_batch :
  t -> Streams.Element.t array -> (string * Streams.Element.t list) list

(** [flush t] — end-of-input: flush shared trees, pass each group's
    flush outputs to its subscribers as one run, then flush
    residual/independent trees. Call once. *)
val flush : t -> (string * Streams.Element.t list) list

(** Per-query answer channel of a {!run}. *)
type query_result = {
  outputs : Streams.Element.t list;  (** in emission order *)
  emitted : int;  (** data tuples *)
  hash : string;  (** {!Executor.output_hash} of [outputs] *)
}

(** [answer outputs] — one query's outputs with their data-tuple count
    and {!Executor.output_hash}. *)
val answer : Streams.Element.t list -> query_result

type result = {
  per_query : (string * query_result) list;  (** in registry order *)
  metrics : Metrics.t;  (** aggregate state series across the whole DAG *)
  consumed : int;
  emitted : int;  (** data tuples across all queries *)
}

(** [run ?sample_every ?label ?exporter t elements] — drive the DAG from
    one interleaved sequence in runs of one through {!Grid.feed} and
    {!feed_batch}, mirroring {!Executor.run}: elements of streams no query
    reads are ignored but still counted as ticks, every [sample_every]
    ticks the run records the same {!Grid} point a sequential run does
    (one part per tree), and [Run_start]/[Run_end] frame the trace. Shared
    state is counted once in every total. *)
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

(** [operators t] — every operator of the DAG, shared trees first, each
    tree bottom-up: the order checkpoint blobs are written in. *)
val operators : t -> Operator.t list

(** [parts t] — one {!Grid.part} per tree. *)
val parts : t -> Grid.part list

(** [register_sources ct t] — {!Executor.register_sources} over every
    tree. *)
val register_sources : Contract.t -> t -> unit

(** [state_breakdown t] — per-operator state grouped by owner: shared
    groups first (owner ["shared:G1"], …), then queries in registry order
    (owner = qid). Shared operators appear exactly once. *)
val state_breakdown : t -> (string * Executor.breakdown list) list

(** [answers_meta t per_query] — the report's answer entries: ["queries"]
    (qid, emitted and hash per query, in [per_query] order) and
    ["shared_groups"] (gid and streams per committed group). {!report}
    and a multi-query {!Parallel_executor.report} both write them. *)
val answers_meta :
  t -> (string * query_result) list -> (string * Obs.Json.t) list

(** [report ?meta t result] — the machine-readable run report over {e all}
    operators of the DAG (shared ones once); replaying the telemetry
    trace reproduces its counters, so [pstream_obs verify] accepts
    shared-run traces. Its meta carries [consumed], [emitted] and
    {!answers_meta}. *)
val report :
  ?meta:(string * Obs.Json.t) list -> t -> result -> Obs.Report.t
