(** Machine-readable run reports, and the trace-replay verifier.

    A report is one JSON document: run metadata, per-operator stats and
    state, the full registry (counters, gauges, histograms), the metrics
    series, and any watchdog alarms ([pstream_run --report]).

    [replay]/[verify] close the provenance loop: replaying a JSONL event
    trace recomputes the per-operator counters independently, and [verify]
    insists they match the report the run wrote — if the two disagree, an
    instrumentation site emitted events and counters inconsistently (or the
    files are from different runs). CI runs this on every smoke run. *)

type operator_entry = {
  name : string;
  inputs : string list;
  unreachable_inputs : string list;
      (** inputs failing the GPG purge-reachability check — non-empty only
          for unsafe (forced) runs *)
  stats : (string * int) list;  (** Operator.stats, flattened *)
  state : (string * int) list;  (** data / puncts / index / bytes *)
}

type t = {
  meta : (string * Json.t) list;  (** run-level facts (query, policy, …) *)
  operators : operator_entry list;
  registry : Registry.t;
  series : Json.t;  (** the metrics time series, pre-rendered *)
  alarms : Watchdog.alarm list;
}

val schema_version : string
val to_json : t -> Json.t

(** [replay events] — per-operator counters recomputed from a trace, under
    the ["<op>.<metric>"] naming convention (tuples_in, tuples_out,
    puncts_in, puncts_out, purged_tuples, purge_rounds, evicted_tuples). *)
val replay : Event.t list -> (string * (string * int) list) list

(** [verify ~report ~events] — check a parsed report against a replayed
    trace: every operator named by an event exists in the report, every
    replayed counter equals the report's counter, and the final emitted
    counts agree. [Error] lists every discrepancy. *)
val verify : report:Json.t -> events:Event.t list -> (unit, string list) result
