(** A join state [Υ_S]: the stored tuples of one input of a join operator,
    with hash indexes built on demand per probe key (the hash tables of the
    symmetric hash join / MJoin algorithms the paper assumes).

    Purging maintains the secondary indexes eagerly: removing a tuple also
    removes its id from every index bucket, and a bucket that empties is
    deleted from its key table. Total operator memory — not just the live
    tuple count — is therefore O(live tuples), which is what Theorem 1's
    bounded-state guarantee is about. {!mem_stats} exposes the accounting.

    Null join keys follow SQL semantics: a tuple whose key projection
    contains [Value.Null] is never indexed, and probing with a Null value
    returns nothing. The bucket tables are keyed by [Value.compare] (which
    treats Null = Null as equal so values can key containers), while join
    predicates use [Value.equal] (which rejects Null = Null) — skipping
    nulls at the index boundary is what keeps the two paths consistent, so
    the answer no longer depends on which atom the probe order uses as the
    hash key.

    The single-attribute Int key — the common shape for equi-joins over
    synthetic and integer-keyed workloads — is specialized at index-build
    time to a native [(int, _) Hashtbl.t], skipping the boxed
    heterogeneous-list hashing of the generic representation. *)

type t

(** A resolved secondary index, for compiled probe programs: obtained once
    via {!index_on} at plan time and probed with {!probe_handle}, skipping
    the per-probe index lookup of {!probe}. Handles stay valid for the
    lifetime of the state (indexes are never dropped, only maintained). *)
type handle

(** Memory accounting for one join state. [index_entries] counts tuple ids
    across all buckets of all indexes; [buckets] counts non-empty buckets;
    [approx_bytes] is a word-counting estimate of the resident size (tuples
    + index cells + bucket keys), meant for trend analysis rather than
    byte-exact measurement. *)
type mem_stats = {
  live_tuples : int;
  index_entries : int;
  buckets : int;
  indexes : int;
  approx_bytes : int;
}

val create : Relational.Schema.t -> t
val schema : t -> Relational.Schema.t

(** [insert ?tick t tuple] stores [tuple]; [tick] (default: the insertion
    counter) is remembered for age-based eviction ({!evict_before}). *)
val insert : ?tick:int -> t -> Relational.Tuple.t -> unit

(** [evict_before t ~tick] removes every live tuple inserted with a tick
    strictly below [tick]; returns how many. This is the sliding-window
    eviction primitive (§2.2's window-based alternative to punctuation
    purging). *)
val evict_before : t -> tick:int -> int

(** [size t] — live tuples (the paper's join-state memory). *)
val size : t -> int

(** [insertions t] — total ever inserted (monotone). *)
val insertions : t -> int

(** [probe t ~attrs values] — live tuples whose projection on attribute
    positions [attrs] equals [values]; indexed after the first probe on a
    given key shape. A [values] containing [Null] matches nothing (SQL
    null-key semantics, see the module docs). *)
val probe : t -> attrs:int list -> Relational.Value.t list -> Relational.Tuple.t list

(** [index_on t ~attr] — the (built-on-demand) single-attribute index on
    position [attr], as a reusable probe handle. *)
val index_on : t -> attr:int -> handle

(** [find_index t ~attr] — the single-attribute index on position [attr]
    if one was already built; never builds one. *)
val find_index : t -> attr:int -> handle option

(** [probe_handle t h v] — live tuples whose [h]-attribute equals [v];
    [Null] matches nothing. Equivalent to {!probe} on [h]'s attribute but
    without the index search or key-list allocation. *)
val probe_handle : t -> handle -> Relational.Value.t -> Relational.Tuple.t list

(** Tick-carrying twins of {!probe} / {!probe_handle}, returning each match
    as [(insertion tick, tuple)]. The instrumented probe path uses these to
    compute a result's latency span (emission tick − oldest contributing
    arrival tick); the plain variants stay allocation-lean for the
    uninstrumented hot path. *)
val probe_entries :
  t -> attrs:int list -> Relational.Value.t list -> (int * Relational.Tuple.t) list

val probe_entries_handle :
  t -> handle -> Relational.Value.t -> (int * Relational.Tuple.t) list

(** [evict_oldest t ~count] removes the [count] oldest live tuples by
    (insertion tick, insertion id) — a deterministic total order, so load
    shedding is reproducible across runs and shard incarnations; returns
    how many were removed (< [count] when the state is smaller). *)
val evict_oldest : t -> count:int -> int

val iter : (Relational.Tuple.t -> unit) -> t -> unit
val fold : ('a -> Relational.Tuple.t -> 'a) -> 'a -> t -> 'a

(** [fold_entries f init t] — like {!fold} with each tuple's insertion
    tick. *)
val fold_entries : ('a -> int -> Relational.Tuple.t -> 'a) -> 'a -> t -> 'a

(** Id-level access, for the incremental purge. Ids are insertion ids:
    [0 .. insertions t - 1], in arrival order; none of these builds an
    index. *)

(** [iteri f t] — [f id tuple] for every live tuple. *)
val iteri : (int -> Relational.Tuple.t -> unit) -> t -> unit

(** [find t id] — the live tuple with id [id], if any. *)
val find : t -> int -> Relational.Tuple.t option

(** [probe_ids t h v] — like {!probe_handle}, with each match's id. *)
val probe_ids :
  t -> handle -> Relational.Value.t -> (int * Relational.Tuple.t) list

(** [remove t ids] removes the live tuples among [ids]; returns how many
    were removed. *)
val remove : t -> int list -> int

(** [purge_if t keep_if_false] removes every live tuple satisfying the
    predicate; returns how many were removed. *)
val purge_if : t -> (Relational.Tuple.t -> bool) -> int

(** [exists_matching t p] — is some live tuple matched by punctuation [p]?
    (punctuation-propagation drain test). *)
val exists_matching : t -> Streams.Punctuation.t -> bool

(** [index_entries t] — tuple ids stored across all index buckets. With
    eager index maintenance this is [size t * number of indexes]. *)
val index_entries : t -> int

(** [bucket_count t] — non-empty hash buckets across all indexes. *)
val bucket_count : t -> int

val mem_stats : t -> mem_stats

(** Versioned binary serialization ({!Streams.Wire}) for checkpointing.
    [write_snapshot] captures the live entries (with insertion ids and
    ticks) and the shape of every index; [read_snapshot] restores {e in
    place} — compiled probe programs hold resolved {!handle}s into this
    state's index records, so the records are kept and refilled, and
    buckets are rebuilt in the original insertion order (probe output
    order is reproduced exactly).
    @raise Streams.Wire.Corrupt on a truncated, malformed or
    version-mismatched snapshot. *)
val write_snapshot : Streams.Wire.W.t -> t -> unit

val read_snapshot : t -> Streams.Wire.R.t -> unit
