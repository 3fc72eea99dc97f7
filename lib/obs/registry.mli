(** The metrics registry: the one store holding every named counter, gauge
    and histogram of a run. Operators record through it (via
    [Engine.Telemetry]); {!Report} writes it into the run report,
    {!Openmetrics} renders it for the live exporter, and CI replays the
    event trace and compares against it.

    Counters only ever increase ([incr] with a negative increment is
    rejected); gauges record the latest value of a level. Names are
    free-form, but the engine follows the ["<operator>.<metric>"]
    convention documented in docs/TELEMETRY.md so reports can be grouped
    per operator. *)

(** How a gauge combines across registries ({!merged}, i.e. across the
    shards of a parallel run). A level that is partitioned (state bytes,
    stored tuples) sums; a level that is a global watermark or progress
    frontier takes its extremum. Declared at {!set_gauge} time, next to
    the value, so merging never guesses from the name. *)
type agg =
  | Sum  (** partitioned quantity: shard values add up *)
  | Max  (** frontier: the furthest shard defines the merged level *)
  | Min  (** lagging frontier: the slowest shard defines it *)

val agg_to_string : agg -> string

type t

val create : unit -> t

(** [incr ?by t name] — add [by] (default 1) to counter [name], creating
    it at 0. @raise Invalid_argument when [by < 0]. *)
val incr : ?by:int -> t -> string -> unit

val counter : t -> string -> int

(** [set_gauge ?agg t name v] — record gauge [name]'s current level,
    declaring how it combines in {!merged} (default [Max]). The last
    declared aggregation wins. *)
val set_gauge : ?agg:agg -> t -> string -> int -> unit

val gauge : t -> string -> int

(** [gauge_agg t name] — the declared aggregation ([Max] if never set). *)
val gauge_agg : t -> string -> agg

(** Name-sorted views of the counters and gauges. *)
val counters : t -> (string * int) list

val gauges : t -> (string * int) list

(** [histogram t name] — find-or-create. *)
val histogram : t -> string -> Histogram.t

(** [observe ?n t name v] — record into histogram [name]. *)
val observe : ?n:int -> t -> string -> int -> unit

(** Name-sorted view of the histograms (the live ones, not copies). *)
val histograms : t -> (string * Histogram.t) list

(** [merged_histogram t suffix] — merge every histogram whose name ends
    with [("." ^ suffix)]; [None] when no such histogram has
    observations. Used to aggregate a per-operator metric (e.g.
    ["purge_lag"]) across operators. *)
val merged_histogram : t -> string -> Histogram.t option

(** [merged ts] — fold several registries (e.g. one per shard of a
    parallel run) into a fresh one: counters add, gauges combine under
    their declared {!agg} (sum for partitioned levels like state bytes,
    max/min for progress frontiers; max when undeclared), histograms
    merge bucket-wise. The result matches what {!Report.replay} computes
    from the shards' interleaved event traces. *)
val merged : t list -> t

(** [clear_gauges t] — drop every gauge, keeping counters and
    histograms. A checkpoint's registry baseline (a {!merged} copy of a
    dead incarnation's registry) clears its gauges before being merged
    with the live registry, so Sum-aggregated levels are not counted
    twice: gauges are levels, not history, so the live side alone is
    authoritative. *)
val clear_gauges : t -> unit

(** Flat object: {"counters": {..}, "gauges": {..}, "histograms": {..}}. *)
val to_json : t -> Json.t
