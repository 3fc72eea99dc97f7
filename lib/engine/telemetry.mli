(** The engine's handle into the [Obs] telemetry library.

    One value of {!t} is shared by an executor tree and every operator in
    it: operators emit {!Obs.Event.t}s and record counters/histograms
    through it, the executor stamps the global element clock and feeds the
    watchdog. The default handle is {!null}, which is disabled: no events
    are constructed, no counters written, and a run is behaviour-identical
    to an uninstrumented one (asserted by a test).

    Naming convention, shared with {!Obs.Report.replay}: counters and
    histograms are ["<operator>.<metric>"], e.g. [J1.tuples_in],
    [J1.push_ns], [J1.purge_lag]. *)

type t

(** Disabled handle: every recording operation is a no-op. *)
val null : t

(** [create ?sink ?watchdog ?time_ns ()] — an enabled handle. [sink]
    defaults to {!Obs.Sink.null} (counters and histograms still record —
    a registry without a trace is the common production mode). [time_ns]
    is the latency clock; the default is the monotonic wall clock in
    nanoseconds, so a push is timed by the domain that runs it. *)
val create :
  ?sink:Obs.Sink.t ->
  ?watchdog:Obs.Watchdog.t ->
  ?time_ns:(unit -> int) ->
  unit ->
  t

val enabled : t -> bool
val registry : t -> Obs.Registry.t
val watchdog : t -> Obs.Watchdog.t option

(** Watchdog alarms raised so far (empty for {!null} or no watchdog). *)
val alarms : t -> Obs.Watchdog.alarm list

(** The executor's element clock: [now] is the tick stamped on events. *)
val now : t -> int

val set_clock : t -> int -> unit

(** [emit t e] — forward [e] to the sink (no-op when disabled). Callers
    should construct the event under an [enabled] guard so the disabled
    path allocates nothing. *)
val emit : t -> Obs.Event.t -> unit

val time_ns : t -> int

(** [incr ?by t name] / [observe ?n t name v] — registry writes; no-ops
    when disabled. *)
val incr : ?by:int -> t -> string -> unit

val observe : ?n:int -> t -> string -> int -> unit

(** [set_gauge ?agg t name v] — record gauge [name]'s current level with
    its cross-shard aggregation (see {!Obs.Counters.agg}); no-op when
    disabled. *)
val set_gauge : ?agg:Obs.Counters.agg -> t -> string -> int -> unit

(** [close t] — flush/close the sink. *)
val close : t -> unit

(** [wrap_op t op] — [op] with its [push]/[flush] wrapped to record
    per-operator ingress/egress counters, [Tuple_in]/[Punct_in]/
    [Tuple_out]/[Punct_out] events (one in-event per element) and the
    [<op>.push_ns] latency histogram (one observation per run). Returns
    [op] unchanged when [t] is disabled. *)
val wrap_op : t -> Operator.t -> Operator.t
