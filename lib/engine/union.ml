open Relational
module Element = Streams.Element
module Punctuation = Streams.Punctuation

let create ?(name = "union") ~left ~right () =
  let same_shape =
    Schema.arity left = Schema.arity right
    && List.for_all2
         (fun (a : Schema.attribute) (b : Schema.attribute) ->
           String.equal a.name b.name && a.ty = b.ty)
         (Schema.attributes left) (Schema.attributes right)
  in
  if not same_shape then
    invalid_arg "Union.create: input schemas must agree";
  let out_schema = Schema.make ~stream:name (Schema.attributes left) in
  let stores =
    [
      (Schema.stream_name left, Punct_store.create left);
      (Schema.stream_name right, Punct_store.create right);
    ]
  in
  let store_of n =
    match List.assoc_opt n stores with
    | Some s -> s
    | None -> invalid_arg (Fmt.str "Union %s: unknown input %s" name n)
  in
  let other_of n =
    match stores with
    | [ (a, sa); (_, sb) ] -> if n = a then sb else sa
    | _ -> assert false
  in
  let stats = ref Operator.empty_stats in
  let now = ref 0 in
  let lift p =
    (* same attribute names, output stream identity *)
    Punctuation.make out_schema (Punctuation.patterns p)
  in
  (* A punctuation may leave this operator once the other input has issued
     one at least as strong: for watermarks this is exactly the min rule. *)
  let emittable () =
    List.concat_map
      (fun (n, store) ->
        let other = other_of n in
        Punct_store.collect_forwardable store
          ~drained:(fun p -> Punct_store.subsumed_by_stored other p)
        |> List.map lift)
      stores
    (* both sides releasing the same guarantee in one round would emit it
       twice; the duplicate adds nothing downstream *)
    |> List.sort_uniq Punctuation.compare
  in
  let push element =
    incr now;
    let input = Element.stream_name element in
    match element with
    | Element.Data tup ->
        ignore (store_of input);
        stats :=
          {
            !stats with
            tuples_in = !stats.tuples_in + 1;
            tuples_out = !stats.tuples_out + 1;
          };
        [ Element.Data (Tuple.make out_schema (Tuple.values tup)) ]
    | Element.Punct p ->
        stats := { !stats with puncts_in = !stats.puncts_in + 1 };
        ignore (Punct_store.insert (store_of input) ~now:!now p);
        let out = emittable () in
        stats := { !stats with puncts_out = !stats.puncts_out + List.length out };
        List.map (fun q -> Element.Punct q) out
  in
  {
    Operator.name;
    out_schema;
    input_names = List.map fst stores;
    push = Operator.batch_of_push push;
    flush = (fun () -> []);
    data_state_size = (fun () -> 0);
    punct_state_size =
      (fun () ->
        List.fold_left (fun acc (_, s) -> acc + Punct_store.size s) 0 stores);
    index_state_size = (fun () -> 0);
    state_bytes = (fun () -> 0);
    stats = (fun () -> !stats);
    persistence = Operator.Volatile "union punctuation stores are not serialized";
  }
