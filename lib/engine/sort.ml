open Relational
module Element = Streams.Element
module Punctuation = Streams.Punctuation

let create ?(name = "sort") ~input ~by () =
  let idx = Schema.attr_index input by in
  (* Buffered tuples, in arrival order (stable release within a batch). *)
  let buffer : Tuple.t list ref = ref [] in
  let stats = ref Operator.empty_stats in
  let release bound =
    let ready, rest =
      List.partition
        (fun tup -> Value.compare (Tuple.get tup idx) bound < 0)
        (List.rev !buffer)
    in
    buffer := List.rev rest;
    let sorted =
      List.stable_sort
        (fun a b -> Value.compare (Tuple.get a idx) (Tuple.get b idx))
        ready
    in
    stats :=
      { !stats with tuples_out = !stats.tuples_out + List.length sorted };
    List.map (fun t -> Element.Data t) sorted
  in
  let push = function
    | Element.Data tup ->
        stats := { !stats with tuples_in = !stats.tuples_in + 1 };
        buffer := tup :: !buffer;
        []
    | Element.Punct p ->
        stats := { !stats with puncts_in = !stats.puncts_in + 1 };
        let released =
          match Punctuation.pattern_at p idx with
          | Punctuation.Less_than bound -> release bound
          | Punctuation.Const _ | Punctuation.Wildcard -> []
        in
        stats := { !stats with puncts_out = !stats.puncts_out + 1 };
        released @ [ Element.Punct p ]
  in
  {
    Operator.name;
    out_schema = input;
    input_names = [ Schema.stream_name input ];
    push = Operator.batch_of_push push;
    flush =
      (fun () ->
        (* end of stream: everything left can be emitted in order *)
        let sorted =
          List.stable_sort
            (fun a b -> Value.compare (Tuple.get a idx) (Tuple.get b idx))
            (List.rev !buffer)
        in
        buffer := [];
        stats :=
          { !stats with tuples_out = !stats.tuples_out + List.length sorted };
        List.map (fun t -> Element.Data t) sorted);
    data_state_size = (fun () -> List.length !buffer);
    punct_state_size = (fun () -> 0);
    index_state_size = (fun () -> 0);
    state_bytes = (fun () -> List.length !buffer * 8 * (Sys.word_size / 8));
    stats = (fun () -> !stats);
    persistence = Operator.Volatile "sort buffer is not serialized";
  }
