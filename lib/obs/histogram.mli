(** Log-bucketed histograms over non-negative integer observations
    (latencies in ns, purge batch sizes, purge lags in ticks).

    Bucket 0 holds the value 0; bucket [i >= 1] holds values in
    [[2^(i-1), 2^i)]. Memory is a fixed 63-slot array regardless of the
    observation range, and [observe] is O(1). Percentiles are resolved to
    the *lower bound* of the bucket the rank falls in — exact for 0 and 1,
    and within a factor of two above that, which is the precision the
    eager-vs-lazy purge-lag comparison needs (eager ⇒ p99 = 0, lazy ⇒
    p50 > 0). *)

type t

val create : unit -> t

(** [observe ?n t v] — record [v] ([n] times, default once). Negative
    values are clamped to 0. *)
val observe : ?n:int -> t -> int -> unit

val count : t -> int
val sum : t -> int

(** Exact extrema of the observed values; 0 when empty. *)
val min_value : t -> int

val max_value : t -> int
val mean : t -> float

(** [percentile t p] — [p] in [0, 1]; the lower bound of the bucket
    holding the rank-⌈p·count⌉ observation (0 when empty). *)
val percentile : t -> float -> int

(** Non-empty buckets as [(lower_bound, count)] pairs, ascending. *)
val buckets : t -> (int * int) list

(** [merge a b] — a fresh histogram holding both observation sets
    (extrema and sum are exact; bucket counts add). *)
val merge : t -> t -> t

(** Summary object: count, sum, min, max, mean, p50/p90/p99, buckets. *)
val to_json : t -> Json.t
