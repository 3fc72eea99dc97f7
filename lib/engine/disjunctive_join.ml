open Relational
module Punctuation = Streams.Punctuation
module Element = Streams.Element
module Disjunctive = Core.Disjunctive

type side = { name : string; schema : Schema.t }

type slot = { side : side; state : Join_state.t; puncts : Punct_store.t }

let create ?(name = "disjunctive_join") ?(policy = Purge_policy.Eager) ~left
    ~right ~(clause : Disjunctive.clause) () =
  let pair_ok =
    (clause.Disjunctive.left_stream = left.name
    && clause.Disjunctive.right_stream = right.name)
    || (clause.Disjunctive.left_stream = right.name
       && clause.Disjunctive.right_stream = left.name)
  in
  if not pair_ok then
    invalid_arg "Disjunctive_join.create: clause does not join the inputs";
  let l = { side = left; state = Join_state.create left.schema;
            puncts = Punct_store.create left.schema }
  and r = { side = right; state = Join_state.create right.schema;
            puncts = Punct_store.create right.schema } in
  let out_schema = Schema.concat ~stream:name left.schema right.schema in
  let stats = ref Operator.empty_stats in
  let now = ref 0 in
  let pending = ref 0 in
  let this_and_other input =
    if String.equal input l.side.name then (l, r)
    else if String.equal input r.side.name then (r, l)
    else
      invalid_arg
        (Fmt.str "Disjunctive_join %s: unknown input %s" name input)
  in
  (* Per disjunct, the binding a tuple of [mine] imposes on the opposite
     side; the tuple is dead only when every one is covered. *)
  let disjunct_bindings mine other tup =
    List.map
      (fun atom ->
        let my_attr = Predicate.attr_on atom mine.side.name in
        let other_attr = Predicate.attr_on atom other.side.name in
        ( Schema.attr_index other.side.schema other_attr,
          Tuple.get_named tup my_attr ))
      clause.Disjunctive.atoms
  in
  let emit mine cand tup =
    if mine == l then Tuple.concat out_schema tup cand
    else Tuple.concat out_schema cand tup
  in
  let probe mine other tup =
    Join_state.fold
      (fun acc (_, cand) ->
        if Disjunctive.joins clause tup cand then emit mine cand tup :: acc
        else acc)
      [] other.state
    |> List.rev
  in
  let sweep () =
    stats := { !stats with purge_rounds = !stats.purge_rounds + 1 };
    let one mine other =
      Join_state.purge_if other.state (fun x ->
          List.for_all
            (fun binding -> Punct_store.covers mine.puncts [ binding ])
            (disjunct_bindings other mine x))
    in
    let removed = one l r + one r l in
    stats := { !stats with tuples_purged = !stats.tuples_purged + removed };
    removed
  in
  let propagate () =
    List.concat_map
      (fun slot ->
        let fresh = ref [] in
        Punct_store.iter
          (fun p ->
            if
              (not (Punct_store.is_forwarded slot.puncts p))
              && not (Join_state.exists_matching slot.state p)
            then begin
              Punct_store.mark_forwarded slot.puncts p;
              let lifted =
                List.map
                  (fun (idx, pat) ->
                    let attr = (Schema.attr_at slot.side.schema idx).Schema.name in
                    (Schema.qualify_attr ~origin:slot.side.name attr, pat))
                  (Punctuation.constraints p)
              in
              fresh := Punctuation.of_constraints out_schema lifted :: !fresh
            end)
          slot.puncts;
        List.rev !fresh)
      [ l; r ]
    |> fun ps ->
    stats := { !stats with puncts_out = !stats.puncts_out + List.length ps };
    List.map (fun p -> Element.Punct p) ps
  in
  let push element =
    incr now;
    let mine, other = this_and_other (Element.stream_name element) in
    match element with
    | Element.Data tup ->
        stats := { !stats with tuples_in = !stats.tuples_in + 1 };
        let results = probe mine other tup in
        (* dead on arrival: every disjunct already ruled out by received
           punctuations — emit its results but do not store it *)
        if
          List.for_all
            (fun binding -> Punct_store.covers other.puncts [ binding ])
            (disjunct_bindings mine other tup)
        then stats := { !stats with tuples_purged = !stats.tuples_purged + 1 }
        else Join_state.insert mine.state tup;
        stats :=
          { !stats with tuples_out = !stats.tuples_out + List.length results };
        List.map (fun t -> Element.Data t) results
    | Element.Punct p ->
        stats := { !stats with puncts_in = !stats.puncts_in + 1 };
        let informative = Punct_store.insert mine.puncts ~now:!now p in
        if informative then incr pending;
        let state_size = Join_state.size l.state + Join_state.size r.state in
        if
          Purge_policy.due policy ~punctuations_pending:!pending ~state_size
        then begin
          pending := 0;
          ignore (sweep ());
          propagate ()
        end
        else []
  in
  let flush () =
    match policy with
    | Purge_policy.Never -> []
    | Purge_policy.Eager | Purge_policy.Lazy _ | Purge_policy.Adaptive _ ->
        if !pending > 0 then begin
          pending := 0;
          ignore (sweep ());
          propagate ()
        end
        else []
  in
  {
    Operator.name;
    out_schema;
    input_names = [ left.name; right.name ];
    push = Operator.batch_of_push push;
    flush;
    data_state_size =
      (fun () -> Join_state.size l.state + Join_state.size r.state);
    punct_state_size =
      (fun () -> Punct_store.size l.puncts + Punct_store.size r.puncts);
    index_state_size =
      (fun () ->
        Join_state.index_entries l.state + Join_state.index_entries r.state);
    state_bytes =
      (fun () ->
        (Join_state.mem_stats l.state).Join_state.approx_bytes
        + (Join_state.mem_stats r.state).Join_state.approx_bytes);
    stats = (fun () -> !stats);
    persistence = Operator.Volatile "disjunctive join state is not serialized";
  }
