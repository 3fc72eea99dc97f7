(** The sampling grid: what a run records every [sample_every] input
    elements, and once more at end of input.

    Theorem 1's bounded-state guarantee is visible at run time only here.
    At each grid point the executor hands over its operators as {!part}s
    and the grid computes the state totals once, then records from them
    the {!Metrics} sample, the per-operator state gauges
    ([<op>.data_state], [.punct_state], [.index_state], [.state_bytes]),
    the whole-process GC deltas ([gc_minor_words] …, [gc_heap_words]),
    the [Sample] event, one watchdog observation per watched operator
    (with its [Alarm] event), and on {!publish} the exporter snapshot. An
    operator is watched from its first grid point holding a stored
    punctuation (before it nothing can have been purged, so growth is the
    punctuation lag filling), or from the start if it has a
    purge-unreachable input. The same
    module builds the report's per-operator entries, so every execution
    mode — sequential, multi-query, sharded — records the same grid point.

    Operators are identified by name across parts: the shards of one plan
    repeat every name and their figures are summed (the watchdog sees each
    operator's state summed over shards, under the sequential name), while
    the trees of a multi-query DAG never share one. *)

(** One unit of compiled operators: a sequential tree, one tree of a
    multi-query DAG, or one shard. *)
type part = {
  ops : Operator.t list;  (** bottom-up *)
  unreachable : string -> string list;
      (** per operator, the inputs failing the purge-reachability check —
          the static diagnosis attached to alarms and report entries *)
}

(** Per-operator state: stored tuples, stored punctuations,
    secondary-index entries and approximate resident bytes. *)
type breakdown = {
  op_name : string;
  data : int;
  puncts : int;
  index : int;
  bytes : int;
}

(** [breakdown parts] — one entry per operator name, summed over the parts
    that carry it, in first-seen order. *)
val breakdown : part list -> breakdown list

type t

(** [start ?exporter ?watchdog ?registry ~sample_every ~label telemetry]
    — open a run's grid. [telemetry] receives the [Run_start]/[Sample]/
    [Alarm]/[Run_end] events, the state gauges and the GC counters when it
    is enabled. [watchdog] defaults to [telemetry]'s; it is observed even
    under a disabled handle. [registry] (default [telemetry]'s) is what
    {!publish} renders to [exporter]. *)
val start :
  ?exporter:Obs.Exporter.t ->
  ?watchdog:Obs.Watchdog.t ->
  ?registry:(unit -> Obs.Registry.t) ->
  sample_every:int ->
  label:string ->
  Telemetry.t ->
  t

(** [sample g ~tick ~emitted parts] — record the grid point at [tick]
    (everything but the exporter snapshot). *)
val sample : t -> tick:int -> emitted:int -> part list -> unit

(** [watch g ~tick ~op ~size] — one more watchdog series on the grid,
    for state that lives outside the operators (the sharded driver's
    replay log); an alarm is traced like an operator's. *)
val watch : t -> tick:int -> op:string -> size:int -> unit

(** [publish g ~tick] — hand the exporter, if any, one rendered
    {!Obs.Openmetrics} snapshot of the registry. *)
val publish : t -> tick:int -> unit

(** [feed ?start ~sample_every ~cap ~run ~point elements] — the one
    feeding loop every driver shares. It buffers up to [cap] elements but
    always cuts at the grid, so every multiple of [sample_every] ends a
    run: [run ~base arr] receives each run (its elements take ticks
    [base + 1 .. base + length arr]) and [point ~tick] follows every run
    that ends on a grid point. Ticks start after [start] (default 0, a
    resumed run's cut). Returns the last tick. *)
val feed :
  ?start:int ->
  sample_every:int ->
  cap:int ->
  run:(base:int -> Streams.Element.t array -> unit) ->
  point:(tick:int -> unit) ->
  Streams.Element.t Seq.t ->
  int

(** [finish g ~tick ~emitted parts] — the closing grid point after the
    final flush ({!Metrics.flush} replaces a same-tick sample), its
    snapshot, and [Run_end]. *)
val finish : t -> tick:int -> emitted:int -> part list -> unit

(** The series recorded so far. *)
val metrics : t -> Metrics.t

(** [report ~meta ~registry ~alarms parts metrics] — a run report whose
    operator entries (stats and state) are summed per operator name over
    [parts], with [metrics] as its series. *)
val report :
  meta:(string * Obs.Json.t) list ->
  registry:Obs.Registry.t ->
  alarms:Obs.Watchdog.alarm list ->
  part list ->
  Metrics.t ->
  Obs.Report.t
