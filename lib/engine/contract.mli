(** Runtime punctuation-contract monitor.

    The paper's safety guarantee (bounded state, Theorems 1–5) is a
    conditional statement: it holds {e if} punctuations keep arriving,
    are never contradicted by later data, and never regress. Those are
    assumptions about the {e input}, and production streams break them —
    lossy transports drop punctuations, at-least-once transports
    duplicate them, reordering delivers a tuple after the punctuation
    that promised it away. This module is the runtime check of those
    assumptions, plus a configurable response when they fail.

    Violations detected:
    - {b late_data} — a data tuple contradicting a punctuation its own
      input already delivered ({!Punct_store.forbids}); the direct breach
      of the punctuation's promise. Detected per join input on every
      insert, contract or no contract.
    - {b dup_punct} — a constant punctuation the store already holds
      (at-least-once delivery). Uninformative, so always count-only: a
      legitimate run can also produce subsumed arrivals.
    - {b punct_regression} — a watermark at or below one already stored.
      Actionable: a regressing watermark means the source's clock went
      backwards (or its transport reordered), and purges already taken
      under the higher watermark cannot be undone.
    - {b punct_stall} — a registered (stream, scheme) source showing no
      punctuation progress for more than [grace] ticks: the stalled
      punctuation generator whose silence voids the boundedness
      guarantee. Latched per source; reported under the pseudo-operator
      ["contract"] and flagged on the watchdog, naming the broken
      scheme.

    Responses ({!action}): [Fail] stops the run with
    {!Violation_failure} (CLI exit 4); [Drop_late] discards late tuples;
    [Quarantine] diverts them to a bounded side-buffer; [Degrade] admits
    everything and keeps running — optionally under a state-byte budget
    enforced by emergency eviction ({!register_shedder} /
    {!enforce_budget}); [Count] only counts.

    Event/counter discipline (checked by [pstream_obs verify]): every
    [Violation]/[Load_shed] event carrying a real operator name is
    mirrored by a registry counter ([<op>.late_tuples],
    [<op>.quarantined_tuples], [<op>.dup_puncts], [<op>.shed_tuples])
    under the same [Telemetry.enabled] gate. *)

type action =
  | Fail  (** raise {!Violation_failure} on the first actionable violation *)
  | Drop_late  (** discard late tuples; count punctuation anomalies *)
  | Quarantine  (** divert late tuples to a bounded side-buffer *)
  | Degrade
      (** admit everything, keep running; alarms + optional state budget *)
  | Count  (** observe only — never changes behaviour *)

type config = {
  action : action;
  grace : int option;
      (** ticks a registered source may go without punctuation progress
          before it is declared stalled; [None] disables stall checks *)
  state_budget_bytes : int option;
      (** under [Degrade]: emergency-evict join state above this estimate *)
  quarantine_cap : int;  (** quarantined tuples retained; overflow is counted *)
}

(** [Count], no grace, no budget, cap 1024. *)
val default_config : config

val pp_action : Format.formatter -> action -> unit
val action_of_string : string -> (action, string) result

type violation = { op : string; input : string; kind : string; tick : int }

exception Violation_failure of violation

val pp_violation : Format.formatter -> violation -> unit

type t

val create : config -> t
val config : t -> config

(** [handle_late contract ~telemetry ~op ~input tup] — decide the fate of
    a tuple that {!Punct_store.forbids} flagged on arrival at [op]'s
    input [input]. Emits the [Violation] event and bumps the paired
    counters (when telemetry is enabled), quarantines under
    [Quarantine], and raises {!Violation_failure} under [Fail]. With
    [None] for [contract] the violation is still counted and the tuple
    admitted — detection is unconditional, response is opt-in. *)
val handle_late :
  t option ->
  telemetry:Telemetry.t ->
  op:string ->
  input:string ->
  Relational.Tuple.t ->
  [ `Admit | `Drop ]

(** [handle_punct_rejected contract ~telemetry ~op ~input ~ordered] — a
    punctuation the store rejected as uninformative: a duplicate/subsumed
    constant ([ordered = false], count-only) or a regressed-or-duplicate
    watermark ([ordered = true], actionable — raises under [Fail]). *)
val handle_punct_rejected :
  t option ->
  telemetry:Telemetry.t ->
  op:string ->
  input:string ->
  ordered:bool ->
  unit

(** [register_source t ~stream scheme] — arm stall tracking for one
    (stream, scheme) pair, with last progress at tick 0. A source never
    registered is never reported stalled. *)
val register_source : t -> stream:string -> Streams.Scheme.t -> unit

(** [note_element t ~tick el] — record punctuation progress: a [Punct]
    element instantiating a registered scheme of its stream refreshes
    that source's clock. Data elements are ignored. *)
val note_element : t -> tick:int -> Streams.Element.t -> unit

(** [check_stalls t ~emit ?watchdog ~tick ()] — newly stalled
    [(stream, scheme)] pairs at [tick]. For each, emits a [Violation]
    event (pseudo-operator ["contract"], kind [punct_stall]) through
    [emit], latches a watchdog alarm naming the broken scheme, and under
    [Fail] raises {!Violation_failure}. No-op when [grace] is [None]. *)
val check_stalls :
  t ->
  emit:(Obs.Event.t -> unit) ->
  ?watchdog:Obs.Watchdog.t ->
  tick:int ->
  unit ->
  (string * string) list

(** [register_shedder t ~op f] — register [op]'s emergency evictor:
    [f ()] sheds a slice of [op]'s join state and returns
    [(victims, bytes_freed_estimate)]. *)
val register_shedder : t -> op:string -> (unit -> int * int) -> unit

(** [enforce_budget t ~telemetry ~tick ~bytes_now ()] — under [Degrade]
    with a budget: while [bytes_now ()] exceeds it (bounded rounds),
    invoke every shedder, emitting a [Load_shed] event and bumping
    [<op>.shed_tuples] per operator that shed. Returns total victims.
    No-op otherwise. *)
val enforce_budget :
  t -> telemetry:Telemetry.t -> tick:int -> bytes_now:(unit -> int) -> unit -> int

(** Cumulative observation counters (per contract instance). *)

val late_count : t -> int
val dup_count : t -> int
val stall_count : t -> int
val shed_count : t -> int

(** The quarantine side-buffer: [(op, input, tuple)] in arrival order,
    at most [quarantine_cap] entries; {!quarantine_overflow} counts the
    late tuples dropped once the buffer was full. *)
val quarantined : t -> (string * string * Relational.Tuple.t) list

val quarantined_count : t -> int
val quarantine_overflow : t -> int

(** Counter summary for a run report's meta object, summed over the
    monitors of one run (a sharded run's driver and shard contracts). *)
val meta_counters : t list -> (string * Obs.Json.t) list
