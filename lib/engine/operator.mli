(** The push-based operator interface shared by joins, group-by and
    projection. An operator consumes the elements of its named inputs and
    emits output elements (result tuples and propagated punctuations) whose
    schema is [out_schema]. *)

type stats = {
  tuples_in : int;
  puncts_in : int;
  tuples_out : int;
  puncts_out : int;
  tuples_purged : int;
  puncts_purged : int;
      (** punctuations removed from the store: expired, partner-purged, or
          displaced by a subsuming later punctuation *)
  puncts_dropped : int;
      (** punctuations that arrived uninformative (already subsumed by the
          store) and were never kept.  Together these close the
          conservation law
          [puncts_in = punct_state + puncts_purged + puncts_dropped]. *)
  purge_rounds : int;
  late_tuples : int;
      (** data tuples that arrived contradicting a punctuation their own
          input had already delivered ({!Punct_store.forbids}) — an input
          contract violation, counted whether or not a {!Contract}
          responds to it *)
}

val empty_stats : stats
val pp_stats : Format.formatter -> stats -> unit

(** [stats_to_alist s] — the stats record flattened to named integers, in
    declaration order (report/JSON rendering). *)
val stats_to_alist : stats -> (string * int) list

(** Binary (de)serialization of a stats record, in declaration order —
    building block for operator snapshot blobs. *)
val write_stats : Streams.Wire.W.t -> stats -> unit

val read_stats : Streams.Wire.R.t -> stats

(** How an operator participates in checkpointing ({!Checkpoint}):

    - [Stateless] — no state beyond its closure; nothing to save, a fresh
      compile restores it.
    - [Volatile reason] — carries state but cannot (yet) serialize it;
      a checkpoint over a plan containing one fails loudly rather than
      silently persisting a hole.
    - [Snapshot] — [save ()] serializes the full operator state (join
      states, punctuation stores, pending buffers, stats, clocks) to a
      versioned {!Streams.Wire} blob; [load blob] restores it {e in
      place} into an identically constructed operator.
      [load] @raise Streams.Wire.Corrupt on a truncated, malformed or
      version-mismatched blob. *)
type persistence =
  | Stateless
  | Volatile of string
  | Snapshot of { save : unit -> string; load : string -> unit }

type t = {
  name : string;
  out_schema : Relational.Schema.t;
  input_names : string list;
  push : Streams.Element.t array -> Streams.Element.t list;
      (** feed a run of input elements (any mix of the operator's inputs,
          in arrival order), collect outputs. This is the only way an
          element enters an operator, and a run of one is the
          element-at-a-time case. Cutting the input into runs never
          changes the data-tuple output sequence or the final state at
          run boundaries; operators amortizing punctuation work per run
          (see {!Mjoin}) may group propagated punctuations at the end of a
          punctuation run, so punctuation outputs are sequence-equal only
          as a multiset per run. Element-wise operators build [push] with
          {!batch_of_push}. *)
  flush : unit -> Streams.Element.t list;
      (** run any deferred purge/propagation work (lazy policies) *)
  data_state_size : unit -> int;
  punct_state_size : unit -> int;
  index_state_size : unit -> int;
      (** entries held by secondary join-state indexes — with eager index
          maintenance this stays O(data_state_size); a gap between the two
          is a purge leak *)
  state_bytes : unit -> int;
      (** approximate resident bytes of the operator's data state including
          index structures (trend indicator, not an exact measurement) *)
  stats : unit -> stats;
  persistence : persistence;
      (** checkpoint participation; {!Telemetry.wrap_op} passes it
          through unchanged *)
}

(** [batch_of_push push] — a run entry from an element-wise one: push
    each element in order and concatenate the outputs. *)
val batch_of_push :
  (Streams.Element.t -> Streams.Element.t list) ->
  Streams.Element.t array ->
  Streams.Element.t list
