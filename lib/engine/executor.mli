(** Plan compilation and execution.

    Compiles an execution plan ({!Query.Plan}) over a query into a tree of
    punctuation-aware join operators, then drives it from an interleaved
    element sequence, collecting results and state metrics.

    Intermediate inputs carry *derived* punctuation schemes: a scheme of a
    base stream [q] is lifted to a sub-plan's output when [q]'s join state
    is purgeable inside that sub-plan (then the sub-operator's propagation
    rule will eventually emit the corresponding punctuations — see
    {!Mjoin}). This mirrors Lemma 1's use of base-stream schemes for
    composite operator inputs. *)

type compiled

(** Compilation configuration — one record in place of six optional
    arguments. [default] preserves every historical default, so
    [compile query plan] without a config is the engine as it always was.
    Build variations with [Config.make] or record update syntax
    ([{ Config.default with policy }]). *)
module Config : sig
  type t = {
    policy : Purge_policy.t;  (** purge cadence (default [Eager]) *)
    punct_lifespan : Core.Punct_purge.lifespan option;
        (** expire stored punctuations (§5.1); default [None] *)
    punct_partner_purge : bool;
        (** purge stored punctuations by partner punctuations; default
            [false] *)
    telemetry : Telemetry.t;
        (** shared by every operator of the tree: operators are created
            with it and wrapped by {!Telemetry.wrap_op}, so an enabled
            handle sees the full event stream and per-operator registry.
            With the default {!Telemetry.null} handle compilation (and the
            run) is behaviour-identical to the uninstrumented engine. *)
    contract : Contract.t option;
        (** punctuation-contract monitor shared by every join operator *)
    op_prefix : string;
        (** prefix on generated operator names ([J1] → [<prefix>J1]);
            multi-query execution uses ["<qid>/"] so telemetry breaks out
            per query (default [""]) *)
  }

  val default : t

  val make :
    ?policy:Purge_policy.t ->
    ?punct_lifespan:Core.Punct_purge.lifespan ->
    ?punct_partner_purge:bool ->
    ?telemetry:Telemetry.t ->
    ?contract:Contract.t ->
    ?op_prefix:string ->
    unit ->
    t
end

(** [compile ?config query plan] — build the operator tree for [plan] under
    [config] (default {!Config.default}). *)
val compile : ?config:Config.t -> Query.Cjq.t -> Query.Plan.t -> compiled

(** [config c] — the configuration the tree was compiled with. *)
val config : compiled -> Config.t

(** [operators c] — bottom-up (each operator after its children). *)
val operators : c:compiled -> Operator.t list

(** [telemetry c] — the handle the tree was compiled with. *)
val telemetry : compiled -> Telemetry.t

(** [contract c] — the punctuation-contract monitor the tree was compiled
    with, if any. Shared by every join operator of the tree; {!run} drives
    its stall checks and budget enforcement on the sampling grid. *)
val contract : compiled -> Contract.t option

(** [register_sources ct c] — arm [ct]'s stall tracking with [c]'s leaf
    (stream, scheme) sources. [compile] already does this for its own
    [?contract]; the sharded driver uses this to track stalls on a separate
    driver-side contract while per-shard contracts ride inside workers. *)
val register_sources : Contract.t -> compiled -> unit

(** [unreachable_inputs c op] — inputs of [op] whose state fails the GPG
    purge-reachability check ({!Core.Gpg.reaches_all}); empty for safe
    plans and unknown operators. This is the static diagnosis the watchdog
    attaches to its alarms. *)
val unreachable_inputs : compiled -> string -> string list

(** [output_schema c] — schema of the root's results. *)
val output_schema : compiled -> Relational.Schema.t

(** [derived_schemes c] — the lifted schemes of the root output (what a
    consumer such as a group-by may rely on). *)
val derived_schemes : compiled -> Streams.Scheme.t list

type result = {
  outputs : Streams.Element.t list;  (** root outputs, in emission order *)
  metrics : Metrics.t;
  consumed : int;
  emitted : int;
      (** data tuples that reached the outputs, counted *after* the sink
          (a filtering/aggregating sink reduces it) *)
}

(** [run ?sample_every ?batch ?sink ?label ?exporter c elements] pushes
    every element through the tree (elements of streams the plan does not
    read are ignored), flushes deferred purge work at the end, and records
    a {!Grid} point every [sample_every] elements and once more after the
    flush. [sink], when given, additionally consumes every root output as
    it is emitted (e.g. a group-by operator). Under an enabled telemetry
    handle the run also emits [Run_start]/[Sample]/[Run_end] events (with
    [label] on the start marker), stamps the element clock, and maintains
    the grid's state gauges, GC counters and watchdog feed.

    [batch] (default 1) is the run size: the input reaches the tree
    through {!feed_batch} in runs of up to [batch] elements, always cut
    at the sampling grid, so the metrics series does not depend on it.
    Data outputs are identical at every size; propagated punctuations may
    be grouped per punctuation run; telemetry events inside a run share
    the run-end tick.

    [exporter], when given, receives one rendered {!Obs.Openmetrics}
    snapshot of the telemetry registry per grid point via
    {!Obs.Exporter.publish}; outputs, hash, metrics series and event trace
    are identical with and without it. *)
val run :
  ?sample_every:int ->
  ?batch:int ->
  ?sink:Operator.t ->
  ?label:string ->
  ?exporter:Obs.Exporter.t ->
  compiled ->
  Streams.Element.t Seq.t ->
  result

(** [total_data_state c] / [total_punct_state c] — current stored tuples /
    punctuations across all operators. *)
val total_data_state : compiled -> int

(** [total_index_state c] — secondary-index entries across all operators;
    stays O({!total_data_state}) now that purging maintains the indexes. *)
val total_index_state : compiled -> int

(** [total_state_bytes c] — approximate resident bytes of all join states
    (see {!Join_state.mem_stats}). *)
val total_state_bytes : compiled -> int

val total_punct_state : compiled -> int

(** Per-operator state snapshot: stored tuples, stored punctuations,
    secondary-index entries and approximate resident bytes — the columns a
    leak diagnosis needs (an index column diverging from data is exactly
    the historical leak shape). *)
type breakdown = Grid.breakdown = {
  op_name : string;
  data : int;
  puncts : int;
  index : int;
  bytes : int;
}

(** [state_breakdown c] — one {!breakdown} per operator, bottom-up. The
    quickest way to see *which* operator of a plan is the one leaking. *)
val state_breakdown : compiled -> breakdown list

(** [output_hash outputs] — hex digest of the {e multiset} of data tuples
    in [outputs] (sorted renderings, so emission order is irrelevant;
    punctuations are excluded). A sharded and a sequential run of the same
    workload must produce equal hashes — CI compares them. *)
val output_hash : Streams.Element.t list -> string

(** [render_data e] — the canonical rendering of one data tuple as used by
    {!output_hash} ([None] for punctuations). {!Checkpoint.Rolling} digests
    the same renderings incrementally so a soak run can compare output
    multisets without retaining them. *)
val render_data : Streams.Element.t -> string option

(** [part c] — [c]'s operators as one {!Grid.part}; the multi-query and
    sharded executors hand one per tree or shard to the grid. *)
val part : compiled -> Grid.part

(** [report ?meta c result] — the machine-readable run report: per-operator
    stats/state with unreachable-input diagnoses, the telemetry registry,
    the metrics series and watchdog alarms. [meta] entries are prepended to
    the run metadata ([consumed]/[emitted] are always present). *)
val report : ?meta:(string * Obs.Json.t) list -> compiled -> result -> Obs.Report.t

(** Driving a tree by hand, for callers that multiplex several compiled
    trees over one input ({!Multi_executor}, {!Dsms}). [feed_batch c run]
    pushes a run of consecutive input elements through the tree (streams
    outside its leaves are skipped) and returns the root outputs; a run
    of one is the element-at-a-time case. Data outputs do not depend on
    where the input is cut; punctuation outputs may be grouped per
    punctuation run. [flush_tree c] drains deferred purge/propagation
    work bottom-up, each child's flush outputs reaching its parent as
    one run (call once, at end of input). *)
val feed_batch : compiled -> Streams.Element.t array -> Streams.Element.t list

val flush_tree : compiled -> Streams.Element.t list
