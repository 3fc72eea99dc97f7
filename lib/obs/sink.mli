(** Pluggable event sinks.

    The engine emits {!Event.t} values through whatever sink the caller
    plugged in; the default is {!null}, which drops everything and keeps an
    instrumented build behaviour- and cost-identical to an uninstrumented
    one. The in-memory sink backs tests, trace-replay verification and a
    sharded run's per-shard traces; the JSONL file sink streams events to
    disk for offline analysis ([pstream_run --trace]). *)

type t = { emit : Event.t -> unit; close : unit -> unit }

(** Drops every event. *)
val null : t

(** [memory ()] — buffer every event in memory. The second component
    returns the buffered events in emission order. *)
val memory : unit -> t * (unit -> Event.t list)

(** [jsonl_file path] — write one {!Event.to_line} per event to the file
    [path]; [close] flushes and closes it. *)
val jsonl_file : string -> t
