(** The punctuation-aware MJoin operator: an n-way (n ≥ 2) symmetric hash
    join in the style of Viglas et al. [13], extended with the paper's
    chained purge strategy and punctuation propagation.

    - A new tuple of one input probes the other inputs' states along a
      spanning walk of the operator's join graph and emits every complete
      match.
    - Punctuations are stored per input; at each purge round (per the
      {!Purge_policy}), every input whose purge plan exists (i.e. whose
      state is purgeable under the operator's scheme set — Theorem 3)
      re-checks its candidate tuples and drops those proven dead by
      {!Core.Chained_purge}. A candidate is a tuple inserted since the last
      round, one a punctuation stored since then may cover (found by
      walking the plan back from the punctuated input), or one whose chain
      lost a tuple since it was last checked; no other tuple can have
      become purgeable, so each round drops exactly what a rescan of every
      live tuple would. [flush], the first round after a checkpoint restore
      and the round after a degrade-mode shed re-check every live tuple.
      Inputs without a purge plan are never checked: no punctuation can
      ever purge them, exactly the unbounded-state behaviour the safety
      checker exists to flag.
    - Under [Eager], an arriving tuple that its purge plan already proves
      dead is not stored (PJoin's dead-on-arrival rule [6]): it emits its
      matches, counts in [tuples_purged] and traces a [Purge] event with
      trigger ["dead_on_arrival"]. The next round would drop it anyway, so
      results do not change. [Lazy], [Adaptive] and [Never] store it.
    - After purging, a stored punctuation [p] of input [q] whose matching
      tuples have fully drained from [q]'s state is *propagated*: the
      operator emits [p] lifted to the output schema, which is what makes
      tree-shaped plans and downstream group-bys workable (§4.1.2 context,
      rule of Tucker et al. [12]).
    - Optionally, stored punctuations are themselves purged by partner
      punctuations and/or expired by lifespan (§5.1). *)

type input = {
  name : string;
  schema : Relational.Schema.t;
  schemes : Streams.Scheme.t list;
      (** schemes of this input: declared (leaf) or derived (sub-plan) *)
}

(** [create ~inputs ~predicates ()] builds the operator.
    [predicates] atoms must reference input names/attributes.
    [telemetry] (default {!Telemetry.null}) receives structured purge
    events and per-operator probe/insert/purge-lag measurements; the null
    handle makes every instrumentation site a no-op.
    [contract], when given, decides the fate of late tuples (arrivals
    contradicting this input's stored punctuations — detected and counted
    regardless) and punctuation anomalies, and receives an emergency
    state-shedder for degraded mode.
    @raise Invalid_argument on malformed inputs (fewer than two, duplicate
    names, atoms over unknown inputs). *)
val create :
  ?name:string ->
  ?policy:Purge_policy.t ->
  ?punct_lifespan:Core.Punct_purge.lifespan ->
  ?punct_partner_purge:bool ->
  ?telemetry:Telemetry.t ->
  ?contract:Contract.t ->
  inputs:input list ->
  predicates:Relational.Predicate.t ->
  unit ->
  Operator.t

(** [purge_plans ~inputs ~predicates] — which inputs the operator will be
    able to purge, with their chained purge plans (exposed for tests and
    explain output). *)
val purge_plans :
  inputs:input list ->
  predicates:Relational.Predicate.t ->
  (string * Core.Chained_purge.plan option) list
