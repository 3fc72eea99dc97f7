(** Structured trace events: the replayable provenance log of a run.

    Every state-changing moment of the engine — a tuple or punctuation
    entering an operator, results leaving it, a purge round removing
    victims, a window eviction, a metrics sample, a watchdog alarm —
    becomes one typed event. Serialized one-per-line as JSON (JSONL), a
    trace can be replayed offline to reproduce the run's per-operator
    counters exactly ({!Report.replay}); CI uses this to cross-check the
    report a run emitted against the trace it wrote.

    Ticks are the executor's element clock (elements consumed so far);
    [lag] on {!Purge} is the purge lag in ticks — see docs/TELEMETRY.md. *)

type t =
  | Run_start of { tick : int; label : string }
  | Run_end of { tick : int; emitted : int }
  | Tuple_in of { tick : int; op : string; input : string }
  | Tuple_out of { tick : int; op : string; count : int }
  | Punct_in of { tick : int; op : string; input : string }
  | Punct_out of { tick : int; op : string; count : int }
  | Purge of {
      tick : int;
      op : string;
      input : string;  (** the input whose join state lost the victims *)
      trigger : string;  (** what fired the round: eager / lazy / flush … *)
      victims : int;
      lag : int;  (** ticks the victims lingered past purgeability *)
    }
  | Purge_round of {
      tick : int;
      op : string;
      trigger : string;
      victims : int;
          (** total victims across all of the operator's inputs — 0 when
              the round ran but found nothing purgeable *)
      lag : int;
    }
      (** one purge round ran, victims or not. Per-input victim detail is
          in the accompanying {!Purge} events (emitted only when an input
          lost tuples); this event is the round marker, so replayed
          [purge_rounds] counters agree with {!Engine.Operator.stats} even
          for victim-less rounds. *)
  | Evict of { tick : int; op : string; input : string; victims : int }
  | Unmatched of {
      tick : int;
      op : string;
      input : string;
          (** the preserved side whose unmatched tuples were released *)
      trigger : string;
          (** what proved matchlessness: [punct] (a partner punctuation
              covered the tuples), [immediate] (already covered on
              arrival), [null_key] (a null join key can never match) or
              [flush] (end of stream) *)
      count : int;
    }
      (** an outer/anti join released [count] punctuation-proven unmatched
          tuples of [input] — see {!Engine.Outer_join} *)
  | Sample of {
      tick : int;
      data_state : int;
      punct_state : int;
      index_state : int;
      state_bytes : int;
      emitted : int;
    }
  | Alarm of {
      tick : int;
      op : string;
      slope : float;
      size : int;
      unreachable : string list;
    }
  | Fault of { tick : int; kind : string; stream : string; detail : string }
      (** an injected fault ({!Streams.Fault_injector}): [kind] names the
          fault (drop_punct, dup_punct, delay_punct, late_data, stall,
          kill_shard), [stream] the victim stream, [detail] the specifics *)
  | Violation of {
      tick : int;
      op : string;
      input : string;
      kind : string;  (** late_data | dup_punct | punct_regression | punct_stall *)
      action : string;  (** count | drop | quarantine | fail | admit | alarm *)
    }  (** a punctuation-contract violation detected by {!Engine.Contract} *)
  | Load_shed of { tick : int; op : string; victims : int; bytes : int }
      (** emergency eviction under a state-byte budget (degrade mode) *)
  | Shard_crash of { tick : int; shard : int; reason : string; attempt : int }
      (** a worker domain died; [attempt] counts restarts so far *)
  | Shard_restart of { tick : int; shard : int; attempt : int; replayed : int }
      (** the supervisor respawned the shard and replayed [replayed]
          elements of its input history *)
  | Checkpoint of { tick : int; barrier : int; bytes : int; duration_ns : int }
      (** a punctuation-aligned checkpoint was taken at quiesce barrier
          [barrier] ([bytes] = encoded size across all shards; 0 when kept
          in memory only) *)
  | Restore of { tick : int; shard : int; bytes : int; duration_ns : int }
      (** a restarted shard was restored from the last checkpoint's
          operator snapshots ([bytes] = its blob total) instead of
          replaying from the beginning *)

(** [op_of e] — the operator an event belongs to, if any (samples, run
    markers, faults and shard lifecycle events are global). *)
val op_of : t -> string option

val tick_of : t -> int

(** [to_json ?shard e] — with [shard], a sharded run tags the event with
    the shard that produced it (an extra ["shard"] field); {!of_json}
    ignores the tag, so replay aggregates across shards — exactly what an
    aggregated report's counters claim. *)
val to_json : ?shard:int -> t -> Json.t

(** [of_json j] — inverse of {!to_json}; [Error] names the offending
    field. Unknown fields (e.g. a ["shard"] tag) are ignored. *)
val of_json : Json.t -> (t, string) result

(** [to_line ?shard e] / [of_line s] — the JSONL codec (no trailing
    newline). *)
val to_line : ?shard:int -> t -> string

val of_line : string -> (t, string) result
