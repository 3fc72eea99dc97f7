(** Sharded query execution across OCaml 5 domains — the one fleet for
    a single query and for a multi-query registry.

    Each shard holds a {!Multi_executor} DAG: [create ~shards] compiles
    [shards] one-unit DAGs of a single plan ({!Multi_executor.of_plan},
    operator names unprefixed), {!create_multi} [shards] copies of the
    shared DAG of a registry. Each copy has its own join states,
    punctuation stores and (optionally) its own telemetry handle, and
    [run] drives them from one input sequence: the driver routes every
    element through a {!Shard_router} (data to its hash owner,
    punctuations to their owner or broadcast), ships it over a bounded
    {!Spsc} queue as part of a batch ({!Multi_executor.feed_batch}), and
    merges the shards' outputs (tagged with their query id), metrics
    samples and telemetry events back into one deterministic result.

    {2 Correctness spine}

    Chained purge (§3.2.1 of the paper) is per join key: a tuple's
    matchability and purgeability depend only on elements sharing its key
    values, and the router sends all of those to one shard. So each shard
    is a complete, Theorem-1-bounded engine for its key slice, and:

    - the {e output data-tuple multiset} equals the sequential run's
      (compare with {!Executor.output_hash});
    - the {e final per-operator data/index state} equals the sequential
      run's, summed across shards — boundedness is preserved shard-wise;
    - under the eager purge policy the barrier-sampled {e state series}
      equals the sequential series tick for tick ({!Metrics.equal});
      lazy/adaptive policies defer purges on per-shard counters, so
      mid-run sizes may differ while the final flushed state still
      agrees.

    {2 Determinism}

    Every element carries its global sequence number: workers stamp it on
    the telemetry clock, outputs are merged by (sequence, shard, emission
    index), and events by (tick, shard, emission index) — so two runs of
    the same input at the same shard count are byte-identical, and the
    driver's barrier protocol samples all shards at the {e same} global
    tick, making watchdog behaviour reproduce the sequential run's.

    The driver feeds a single optional watchdog with each operator's
    state summed across shards under the sequential operator names, so an
    unsafe query trips the same alarms at the same ticks as a sequential
    run on the sampling grid.

    {2 Supervision}

    Worker domains are supervised: an exception escaping a worker (a bug,
    or an injected {!Streams.Fault_injector.Injected_kill}) poisons its
    {!Spsc} queue and publishes a post-mortem instead of hanging the
    barrier. The driver then joins the dead domain and — because a shard's
    state is a pure function of its input batch sequence — restarts it
    from a fresh compile and replays its recorded history, reproducing
    the dead incarnation's state, outputs and telemetry exactly (which is
    why the dead incarnation's are discarded wholesale, not merged).
    Restarts are bounded per shard ([max_restarts], exponential backoff);
    exhausting them raises {!Shard_failed}. A
    {!Contract.Violation_failure} escaping a worker is poison, not a
    crash: replay would deterministically re-raise it, so it aborts the
    fleet and propagates. *)

type t

exception Shard_failed of { shard : int; attempts : int; reason : string }
(** A shard kept crashing past its restart budget; the fleet has been
    torn down. The CLI maps this to exit code 5. *)

val create :
  ?config:Executor.Config.t ->
  ?watchdog:Obs.Watchdog.t ->
  ?instrument:bool ->
  ?contract_config:Contract.config ->
  ?kills:Streams.Fault_injector.kill list ->
  ?max_restarts:int ->
  ?checkpoint:Checkpoint.config ->
  ?resume:Checkpoint.t ->
  shards:int ->
  Query.Cjq.t ->
  Query.Plan.t ->
  t
(** [config] (default {!Executor.Config.default}) is the per-shard compile
    configuration; its [telemetry] and [contract] fields are ignored — each
    shard incarnation owns fresh handles, governed by [instrument] and
    [contract_config] below.

    [instrument] (default [false]) gives every shard an enabled telemetry
    handle over an in-memory sink, making {!events} and the aggregated
    {!report}'s registry meaningful; leave it off for benchmarking — the
    shards then run with {!Telemetry.null}, exactly as an uninstrumented
    sequential engine does.

    [contract_config] arms punctuation-contract monitoring: each shard's
    operators get their own {!Contract.t} (state budgets are split evenly,
    budget/shards each), while punctuation-{e stall} tracking runs on a
    driver-side contract, since only the driver sees the whole input.
    Budget enforcement and stall checks run at the sampling barriers,
    mirroring {!Executor.run}'s grid.

    [kills] arms deterministic worker kills (shard [s] raises on reaching
    global sequence [at_seq]) for fault-injection tests and kill-storm
    soaks; each kill fires once, several may target the same shard, and
    the restarted incarnation replays the same sequence unharmed. Build
    storms with {!Streams.Fault_injector.kill_schedule}.

    [max_restarts] (default 2) bounds restarts {e per shard} — note a
    storm of [k] kills against one shard needs [max_restarts >= k].

    [checkpoint] arms punctuation-aligned checkpointing: every
    [checkpoint.every]-th sampling-grid barrier the quiesced shards are
    snapshotted ({!Operator.persistence}), outputs so far are committed
    to the cut, and each shard's replay history is truncated — bounding
    crash recovery to one checkpoint interval of input. With
    [checkpoint.dir] set each cut is also persisted durably
    ({!Checkpoint.save}).

    [resume] starts the fleet from a previously saved cut
    ({!Checkpoint.load_latest}): operator state is restored in place and
    [run] must then be given the {e same} input sequence — it skips the
    already-consumed prefix itself.

    @raise Invalid_argument when [shards <= 0], [max_restarts < 0], a
    kill's shard is not below [shards], or an operator in the plan does not
    support snapshots ([Volatile]) while [checkpoint] is armed (raised at
    the first cut).
    @raise Checkpoint.Invalid when [resume] was taken at a different shard
    count. *)

val create_multi :
  ?config:Executor.Config.t ->
  ?share:bool ->
  ?watchdog:Obs.Watchdog.t ->
  ?instrument:bool ->
  ?kills:Streams.Fault_injector.kill list ->
  ?max_restarts:int ->
  shards:int ->
  Query.Query_registry.t ->
  t
(** [create_multi ~shards registry] — the fleet over the registry's
    shared DAG ({!Multi_executor.create} with [config] and [share]), routed
    by one {!Shard_router.create_multi} table over the union of the
    queries. [watchdog], [instrument], [kills] and [max_restarts] mean what
    they mean for {!create}. Per-query output hashes equal the sequential
    {!Multi_executor.run}'s on key-aligned workloads, and on arbitrary
    workloads when the router is exact for each query's streams.

    A multi-query fleet takes no checkpoint, resume or contract: a
    checkpoint's committed outputs carry no query id, and multi-query
    execution threads no contract.

    @raise Invalid_argument under the conditions of {!create}, or when
    {!Shard_router.sound_for_shared} rejects the subscriber set. *)

val crash_count : t -> int
(** Total worker restarts performed so far (summed over shards). *)

type restart = {
  shard : int;
  attempt : int;
  replayed : int;
      (** input {e elements} replayed into the fresh incarnation — with
          checkpointing armed, bounded by the checkpoint interval *)
  restored : bool;
      (** the incarnation's state came from a checkpoint restore rather
          than a from-scratch replay *)
}

val restarts_log : t -> restart list
(** Every supervised restart of the last [run], oldest first — the soak
    harness asserts bounded [replayed] from this without instrumenting. *)

val history_elems : t -> int
(** Input elements currently retained for crash replay, summed across
    shards; with checkpointing armed this drops back near zero at every
    cut. *)

val history_bytes : t -> int
(** Estimated bytes of the retained replay history, summed across
    shards (the [pstream_history_bytes] gauge). *)

val router : t -> Shard_router.t
val n_shards : t -> int

type result = {
  outputs : Streams.Element.t list;
      (** merged root outputs of every query in deterministic (sequence,
          shard) order *)
  per_query : (string * Streams.Element.t list) list;
      (** the same outputs split by query id, in registry order; a
          {!create}d fleet's one query answers under ["query"] *)
  metrics : Metrics.t;  (** driver-sampled global state series *)
  consumed : int;
  emitted : int;  (** data tuples across all shards *)
}

(** [run ?sample_every ?label ?exporter ?on_commit t elements] — one shot
    per [t]: drives the worker domains to completion and joins them. Ticks
    count every input element (as {!Executor.run} does; the driver feeds
    through {!Grid.feed}), and sampling happens at global barriers on the
    [sample_every] grid: the driver quiesces all shards, runs the contract
    checks, records the same {!Grid} point a sequential run does (one part
    per tree of every shard, so each operator's state is summed over the
    fleet), then releases them.

    Under [instrument] the driver's own telemetry handle receives the
    grid's events, state gauges and driver-domain GC counters.
    [exporter], when given, receives one rendered {!Obs.Openmetrics}
    snapshot of the merged registry per grid point — the same series names
    a sequential run exports.

    [on_commit], with checkpointing armed, streams each cut's committed
    outputs to the caller instead of retaining them (the soak harness
    folds them into a {!Checkpoint.Rolling} digest to keep driver memory
    flat); the [result]'s [outputs] then contain only the post-last-cut
    tail. Incompatible with a durable [checkpoint.dir] (a persisted cut
    must own its committed outputs) — that combination raises
    [Invalid_argument].

    @raise Shard_failed when a shard exhausts its restart budget.
    @raise Contract.Violation_failure under a [Fail] contract. Either way
    the fleet is torn down before the exception escapes. *)
val run :
  ?sample_every:int ->
  ?label:string ->
  ?exporter:Obs.Exporter.t ->
  ?on_commit:(Streams.Element.t list -> unit) ->
  t ->
  Streams.Element.t Seq.t ->
  result

(** Merged, deterministically ordered telemetry events of the last [run]:
    [(Some shard, event)] for worker events, [(None, event)] for the
    driver's [Run_start]/[Sample]/[Alarm]/[Run_end]. Empty unless
    [instrument] was set. Serialize with [Event.to_line ?shard] to get the
    one-trace-with-a-shard-field JSONL the CLI's [--trace] writes. *)
val events : t -> (int option * Obs.Event.t) list

(** Watchdog alarms raised by the driver (empty without a watchdog). *)
val alarms : t -> Obs.Watchdog.alarm list

(** Summed state accessors — meaningful when the shards are quiescent
    (after [run], or inside a barrier). *)
val total_data_state : t -> int

val total_index_state : t -> int

(** [state_breakdown t] — per-operator state summed across shards, in the
    sequential operator order. *)
val state_breakdown : t -> (string * Operator.state) list

(** [shard_breakdowns t] — one breakdown list per shard, for the
    [--shards] CLI's per-shard table. *)
val shard_breakdowns : t -> (string * Operator.state) list array

(** [report ?meta t result] — aggregated run report: operator stats and
    state summed across shards, registries merged ({!Obs.Registry.merged}),
    the driver's series and alarms, plus ["shards"] and ["shard_crashes"]
    meta entries (and a ["contract"] summary when a contract is armed; a
    {!create_multi} fleet adds {!Multi_executor.answers_meta}, as the
    sequential multi-query report does). Replaying the merged {!events}
    trace reproduces its counters, exactly as for a sequential report. *)
val report :
  ?meta:(string * Obs.Json.t) list -> t -> result -> Obs.Report.t
