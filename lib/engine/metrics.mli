(** Execution metrics: state-size time series and aggregate counters.

    The operational content of the paper's safety notion is visible here: a
    safe plan's [data_state] series plateaus, an unsafe one's grows without
    bound. Since this PR the series also tracks [index_state] (secondary
    index entries) and [state_bytes] (approximate resident bytes), so a
    purge path that forgets to clean the indexes shows up as an
    [index_state] series growing away from [data_state]. Benches print
    these series and `BENCH_bounded_state.json` persists them.

    Sampling contract: ticks are 1-based, and [observe] records only on
    ticks that are multiples of [sample_every] — a run shorter than
    [sample_every] records nothing through [observe] alone. Finish every
    run with [flush] (as {!Grid.finish} does) so the series always carries
    a closing sample; [final] and the [peak_*] accessors are only
    meaningful after that. *)

type sample = {
  tick : int;  (** elements consumed so far *)
  data_state : int;  (** stored tuples across all join states *)
  punct_state : int;  (** stored punctuations across all stores *)
  index_state : int;  (** secondary-index entries across all join states *)
  state_bytes : int;  (** approximate resident bytes of the join states *)
  emitted : int;  (** result tuples emitted so far *)
}

type t

val create : ?sample_every:int -> unit -> t

(** [observe t ~tick ...] records a sample when [tick] falls on the
    sampling grid (multiples of [sample_every]; ticks are 1-based). *)
val observe :
  t ->
  tick:int ->
  data_state:int ->
  punct_state:int ->
  ?index_state:int ->
  ?state_bytes:int ->
  emitted:int ->
  unit ->
  unit

(** [force t ...] records unconditionally. *)
val force :
  t ->
  tick:int ->
  data_state:int ->
  punct_state:int ->
  ?index_state:int ->
  ?state_bytes:int ->
  emitted:int ->
  unit ->
  unit

(** [flush t ...] records the closing sample; a same-tick sample recorded
    by [observe] is replaced rather than duplicated (a duplicate final
    point would bias {!growth_slope}, and the pre-flush values miss the
    effect of the final purge round). *)
val flush :
  t ->
  tick:int ->
  data_state:int ->
  punct_state:int ->
  ?index_state:int ->
  ?state_bytes:int ->
  emitted:int ->
  unit ->
  unit

val samples : t -> sample list

(** [equal a b] — same recorded samples, tick for tick. Under the eager
    purge policy a sharded run's barrier-sampled series must equal the
    sequential series; this is the check. *)
val equal : t -> t -> bool

val peak_data_state : t -> int
val peak_punct_state : t -> int
val peak_index_state : t -> int
val peak_state_bytes : t -> int
val final : t -> sample option

(** [growth_slope t] — least-squares slope of [data_state] against [tick]
    over the second half of the run: ≈ 0 for bounded state, > 0 for
    unbounded growth. *)
val growth_slope : t -> float

(** [index_growth_slope t] — the same slope for [index_state]; this is the
    series that exposed the pre-fix index leak (slope > 0 while
    [growth_slope] ≈ 0). *)
val index_growth_slope : t -> float

val pp_series : Format.formatter -> t -> unit
