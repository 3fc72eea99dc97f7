(** Traces: finite prefixes of a global arrival sequence.

    The engine and the benchmarks consume traces — interleavings of the
    elements of several punctuated streams in arrival order. Traces are also
    where punctuation *soundness* is defined: a trace is well-formed when no
    tuple arrives after a punctuation that forbids it. *)

type t = Element.t list

(** [streams t] is the set of stream names appearing in [t]. *)
val streams : t -> string list

val data_count : t -> int
val punct_count : t -> int

(** [for_stream t s] is the sub-trace of stream [s], order preserved. *)
val for_stream : t -> string -> t

type violation =
  | Tuple_after_punctuation of Relational.Tuple.t * Punctuation.t
      (** a data element arrived after a punctuation matching it *)
  | Unregistered_punctuation of Punctuation.t
      (** a punctuation instantiates no scheme of the given set *)

val pp_violation : Format.formatter -> violation -> unit

(** [check ~schemes t] is the list of well-formedness violations of [t]
    against scheme set [schemes] (empty when the trace is sound), in trace
    order, each tuple's violations newest punctuation first. Earlier
    punctuations are indexed by shape and constant values, so a sound
    trace costs one lookup per punctuation shape per tuple. *)
val check : schemes:Scheme.Set.t -> t -> violation list

(** [interleave ?seed weighted] merges per-stream traces into one arrival
    order, preserving each stream's internal order. Each stream carries an
    integer weight; at every step a stream is drawn with probability
    proportional to its weight among streams with elements left, using a
    deterministic PRNG seeded by [seed] (default 42). *)
val interleave : ?seed:int -> (t * int) list -> t

(** [round_robin traces] merges per-stream traces by strict turn-taking. *)
val round_robin : t list -> t

val pp : Format.formatter -> t -> unit
