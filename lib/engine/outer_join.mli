(** The punctuation-proven outer-join family: LEFT / RIGHT / FULL OUTER and
    ANTI semantics over two punctuated streams.

    The paper's safety theory decides when a purge is *sound*; this
    operator runs on the dual reading of the same proof obligation — a
    punctuation showing that {e no partner can ever arrive} is exactly what
    licenses emitting an unmatched-side result. Over infinite streams none
    of these variants is computable without punctuations ("no match will
    ever arrive" is unknowable), which makes them the sharpest showcase of
    punctuation semantics: where LQR-style engines time unmatched emission
    out heuristically, here a tuple is released exactly when
    {!Punct_store.covers} proves its matchlessness.

    Semantics per variant ([left] is the first input):
    - [Left]: inner matches stream out as in a symmetric hash join; a left
      tuple whose join values are covered by right punctuations while it
      never matched is emitted null-padded on the right attributes.
    - [Right]: the mirror image.
    - [Full]: both sides are preserved.
    - [Anti]: the anti semi-join — only the provably matchless left tuples
      are emitted (projected onto the left schema, no padding); inner
      matches produce nothing and disqualify pending left tuples.

    Null join keys follow PR 5's rules: SQL equality never accepts Null, so
    a null-keyed tuple of a preserved side is provably matchless {e on
    arrival} (emitted immediately); on the other side it is dropped.
    Null-padded outputs typecheck because [Value.Null] inhabits every
    column type.

    Accounting: [tuples_purged] counts only tuples that were stored and
    then removed without producing output — released unmatched results are
    tracked by {!Obs.Event.Unmatched} events and the
    [<op>.unmatched_tuples] counter instead, and never-stored arrivals
    (dead on arrival, null keys, matched anti tuples) count as neither, so
    trace replay reproduces every counter exactly.

    Punctuation forwarding is *held*: an input punctuation is forwarded
    (lifted to the output schema) only once no stored tuple of its side
    matches it — otherwise a later release or join of such a tuple would be
    late data contradicting the forwarded promise. On a side whose output
    attributes can be null-padded, ordered (watermark) punctuations are
    consumed rather than forwarded, since [Null] sorts below every value.
    The anti join forwards left punctuations only (its output is a
    sub-stream of the left input).

    Purging is always eager — punctuation-proven emission has to examine
    every informative punctuation anyway, so there is no lazy cadence to
    exploit. [flush] treats end-of-stream as a universal punctuation:
    every pending tuple is released as an unmatched result, remaining
    state is purged, and held punctuations are forwarded. *)

type semantics = Left | Right | Full | Anti

val pp_semantics : Format.formatter -> semantics -> unit

(** One input of the operator (same shape as {!Mjoin.input}). *)
type side = {
  name : string;
  schema : Relational.Schema.t;
  schemes : Streams.Scheme.t list;
}

(** [create ~semantics ~left ~right ~predicates ()] — [predicates] atoms
    must all link the two inputs (conjunctive equi-join condition).

    The output schema is [left ++ right] with qualified attribute names for
    the outer variants, and the left schema renamed to the operator for
    [Anti].

    @raise Invalid_argument on identical input names, an empty predicate,
    or an atom not between the two inputs. *)
val create :
  ?name:string ->
  ?telemetry:Telemetry.t ->
  ?contract:Contract.t ->
  semantics:semantics ->
  left:side ->
  right:side ->
  predicates:Relational.Predicate.t ->
  unit ->
  Operator.t
