type stats = {
  tuples_in : int;
  puncts_in : int;
  tuples_out : int;
  puncts_out : int;
  tuples_purged : int;
  puncts_purged : int;
  puncts_dropped : int;
  purge_rounds : int;
  late_tuples : int;
      (* arrivals contradicting a punctuation their own input already
         delivered — counted whether or not a contract responds to them *)
}

let empty_stats =
  {
    tuples_in = 0;
    puncts_in = 0;
    tuples_out = 0;
    puncts_out = 0;
    tuples_purged = 0;
    puncts_purged = 0;
    puncts_dropped = 0;
    purge_rounds = 0;
    late_tuples = 0;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "in: %d tuples / %d puncts; out: %d tuples / %d puncts; purged: %d tuples / %d puncts in %d rounds; dropped %d puncts; late %d tuples"
    s.tuples_in s.puncts_in s.tuples_out s.puncts_out s.tuples_purged
    s.puncts_purged s.purge_rounds s.puncts_dropped s.late_tuples

let stats_to_alist s =
  [
    ("tuples_in", s.tuples_in);
    ("puncts_in", s.puncts_in);
    ("tuples_out", s.tuples_out);
    ("puncts_out", s.puncts_out);
    ("tuples_purged", s.tuples_purged);
    ("puncts_purged", s.puncts_purged);
    ("puncts_dropped", s.puncts_dropped);
    ("purge_rounds", s.purge_rounds);
    ("late_tuples", s.late_tuples);
  ]

let write_stats b s =
  let i = Streams.Wire.W.int b in
  i s.tuples_in;
  i s.puncts_in;
  i s.tuples_out;
  i s.puncts_out;
  i s.tuples_purged;
  i s.puncts_purged;
  i s.puncts_dropped;
  i s.purge_rounds;
  i s.late_tuples

let read_stats r =
  let i () = Streams.Wire.R.int r in
  let tuples_in = i () in
  let puncts_in = i () in
  let tuples_out = i () in
  let puncts_out = i () in
  let tuples_purged = i () in
  let puncts_purged = i () in
  let puncts_dropped = i () in
  let purge_rounds = i () in
  let late_tuples = i () in
  {
    tuples_in;
    puncts_in;
    tuples_out;
    puncts_out;
    tuples_purged;
    puncts_purged;
    puncts_dropped;
    purge_rounds;
    late_tuples;
  }

type persistence =
  | Stateless
  | Volatile of string
  | Snapshot of { save : unit -> string; load : string -> unit }

type t = {
  name : string;
  out_schema : Relational.Schema.t;
  input_names : string list;
  push : Streams.Element.t array -> Streams.Element.t list;
  flush : unit -> Streams.Element.t list;
  data_state_size : unit -> int;
  punct_state_size : unit -> int;
  index_state_size : unit -> int;
  state_bytes : unit -> int;
  stats : unit -> stats;
  persistence : persistence;
}

let batch_of_push push arr =
  let acc = ref [] in
  Array.iter
    (fun e -> List.iter (fun o -> acc := o :: !acc) (push e))
    arr;
  List.rev !acc
