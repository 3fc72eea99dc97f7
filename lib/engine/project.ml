open Relational
module Punctuation = Streams.Punctuation
module Element = Streams.Element

let create ?(name = "project") ~input ~keep () =
  if keep = [] then invalid_arg "Project.create: empty attribute list";
  let idxs = List.map (Schema.attr_index input) keep in
  let out_schema =
    Schema.make ~stream:name (List.map (Schema.attr_at input) idxs)
  in
  let stats = ref Operator.empty_stats in
  let push = function
    | Element.Data tup ->
        stats :=
          {
            !stats with
            tuples_in = !stats.tuples_in + 1;
            tuples_out = !stats.tuples_out + 1;
          };
        [ Element.Data (Tuple.make out_schema (Tuple.project tup idxs)) ]
    | Element.Punct p ->
        stats := { !stats with puncts_in = !stats.puncts_in + 1 };
        let pinned = Punctuation.const_bindings p in
        if List.for_all (fun (i, _) -> List.mem i idxs) pinned then begin
          let bindings =
            List.map
              (fun (i, v) -> ((Schema.attr_at input i).Schema.name, v))
              pinned
          in
          stats := { !stats with puncts_out = !stats.puncts_out + 1 };
          [ Element.Punct (Punctuation.of_bindings out_schema bindings) ]
        end
        else []
  in
  {
    Operator.name;
    out_schema;
    input_names = [ Schema.stream_name input ];
    push = Operator.batch_of_push push;
    flush = (fun () -> []);
    data_state_size = (fun () -> 0);
    punct_state_size = (fun () -> 0);
    index_state_size = (fun () -> 0);
    state_bytes = (fun () -> 0);
    stats = (fun () -> !stats);
    persistence = Operator.Stateless;
  }
