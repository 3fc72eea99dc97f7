(** OpenMetrics text exposition of a {!Registry}: what the live
    {!Exporter} serves, rendered from the live registry at each point of
    the executor's sampling grid.

    Family mapping: an internal ["<op>.<metric>"] name becomes family
    ["pstream_<metric>"] with label [op]; ["<op>.<input>.<metric>"] adds an
    [input] label; dotless names become label-free families. Counters get
    the [_total] sample suffix, gauges carry an [agg] label naming their
    cross-shard aggregation, histograms render cumulative [le] buckets on
    the engine's log2 grid (integer upper edges 0, 1, 3, 7, …, +Inf) plus
    [_sum]/[_count]. The exposition ends with [# EOF]. *)

(** [render ~tick reg] — the full exposition text of [reg] as it stands,
    families name-sorted, one [# TYPE] line each. A gauge ["pstream_tick"]
    records [tick], where on the element clock the rendering sits.

    @raise Invalid_argument if two internal names map to one family with
    conflicting types (e.g. a counter and a gauge both named
    ["x.state_bytes"]). *)
val render : tick:int -> Registry.t -> string

type sample = {
  name : string;  (** sample name, e.g. ["pstream_tuples_in_total"] *)
  labels : (string * string) list;
  value : float;
}

(** [parse text] — samples in exposition order. Validates the [# EOF]
    terminator and basic line shape; it is a scraper's reader, not a
    conformance checker. Malformed text of any shape is an [Error], never
    an exception. *)
val parse : string -> (sample list, string) result

(** [label s key] — convenience lookup. *)
val label : sample -> string -> string option
