(** Execution metrics: state-size time series and aggregate counters.

    The operational content of the paper's safety notion is visible here: a
    safe plan's [data_state] series plateaus, an unsafe one's grows without
    bound. The series also tracks [index_state] (secondary index
    entries) and [state_bytes] (approximate resident bytes), so a purge
    path that forgets to clean the indexes shows up as an [index_state]
    series growing away from [data_state]. Benches print
    these series and `BENCH_bounded_state.json` persists them.

    Sampling contract: the series holds what {!Grid} records — a [force]d
    sample at every grid point (ticks are 1-based, multiples of the run's
    [sample_every]) and one [flush]ed closing sample at end of input,
    after the final purge round. The closing sample replaces a same-tick
    grid point, so every run, even one shorter than [sample_every],
    carries exactly one sample per tick and ends on its closing one;
    [final] and the [peak_*] accessors are only meaningful after the
    flush. *)

type sample = {
  tick : int;  (** elements consumed so far *)
  data_state : int;  (** stored tuples across all join states *)
  punct_state : int;  (** stored punctuations across all stores *)
  index_state : int;  (** secondary-index entries across all join states *)
  state_bytes : int;  (** approximate resident bytes of the join states *)
  emitted : int;  (** result tuples emitted so far *)
}

type t

val create : unit -> t

(** [force t ...] records a grid point. *)
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

(** [flush t ...] records the closing sample; a same-tick sample already
    recorded is replaced rather than duplicated (a duplicate final point
    would bias {!growth_slope}, and the pre-flush values miss the effect
    of the final purge round). *)
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
