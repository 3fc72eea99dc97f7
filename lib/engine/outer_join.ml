open Relational
module Punctuation = Streams.Punctuation
module Element = Streams.Element

type semantics = Left | Right | Full | Anti

let pp_semantics ppf s =
  Fmt.string ppf
    (match s with
    | Left -> "left"
    | Right -> "right"
    | Full -> "full"
    | Anti -> "anti")

type side = {
  name : string;
  schema : Schema.t;
  schemes : Streams.Scheme.t list;
}

(* One input of the operator.

   [store] holds the tuples the partner side probes for inner matches;
   [pending] holds the preserved side's not-yet-matched tuples awaiting a
   partner punctuation that proves matchlessness. For the outer variants
   [pending] is a subset of [store] (same physical tuples, second index);
   the anti join never emits inner results, so its left side lives in
   [pending] alone and [store] stays empty. *)
type slot = {
  side : side;
  store : Join_state.t;
  pending : Join_state.t;
  puncts : Punct_store.t;
  join_idxs : int array;
  preserved : bool;  (* unmatched tuples of this side become results *)
  store_used : bool;  (* false only for the anti join's left side *)
  nullable_out : bool;  (* this side's output attributes may be Null *)
}

let create ?(name = "outer_join") ?(telemetry = Telemetry.null) ?contract
    ~semantics ~left ~right ~predicates () =
  if String.equal left.name right.name then
    invalid_arg "Outer_join.create: identical input names";
  if predicates = [] then invalid_arg "Outer_join.create: no join predicate";
  List.iter
    (fun atom ->
      if
        not
          (Predicate.involves atom left.name
          && Predicate.involves atom right.name)
      then
        invalid_arg
          (Fmt.str "Outer_join.create: predicate %a not between %s and %s"
             Predicate.pp_atom atom left.name right.name))
    predicates;
  let join_idxs_of (side : side) =
    List.map
      (fun atom ->
        Schema.attr_index side.schema (Predicate.attr_on atom side.name))
      predicates
    |> List.sort_uniq compare |> Array.of_list
  in
  let slot_of side ~preserved ~store_used ~nullable_out =
    {
      side;
      store = Join_state.create side.schema;
      pending = Join_state.create side.schema;
      puncts = Punct_store.create side.schema;
      join_idxs = join_idxs_of side;
      preserved;
      store_used;
      nullable_out;
    }
  in
  let l =
    slot_of left
      ~preserved:(match semantics with Left | Full | Anti -> true | Right -> false)
      ~store_used:(semantics <> Anti)
      ~nullable_out:(match semantics with Right | Full -> true | Left | Anti -> false)
  and r =
    slot_of right
      ~preserved:(match semantics with Right | Full -> true | Left | Anti -> false)
      ~store_used:true
      ~nullable_out:(match semantics with Left | Full -> true | Right | Anti -> false)
  in
  (* The anti join projects the output onto the left schema (renamed to the
     operator); the outer variants concatenate both sides. *)
  let out_schema =
    match semantics with
    | Anti -> Schema.make ~stream:name (Schema.attributes left.schema)
    | Left | Right | Full ->
        Schema.concat ~stream:name left.schema right.schema
  in
  let left_arity = Schema.arity left.schema in
  let right_arity = Schema.arity right.schema in
  let stats = ref Operator.empty_stats in
  let instrumented = Telemetry.enabled telemetry in
  let c_probes = name ^ ".probes" and c_inserts = name ^ ".inserts" in
  let now = ref 0 in
  let pending_since = ref None in
  (match contract with
  | None -> ()
  | Some c ->
      Contract.register_shedder c ~op:name (fun () ->
          let states =
            [ l.store; l.pending; r.store; r.pending ]
            |> List.filter (fun s -> Join_state.size s > 0)
          in
          let bytes () =
            List.fold_left
              (fun acc s ->
                acc + (Join_state.mem_stats s).Join_state.approx_bytes)
              0 states
          in
          let before = bytes () in
          let victims =
            List.fold_left
              (fun acc s ->
                let want = (Join_state.size s + 3) / 4 in
                acc + Join_state.evict_oldest s ~count:want)
              0 states
          in
          (victims, max 0 (before - bytes ()))));
  let record_purge ~input ~trigger ~victims =
    if victims > 0 && instrumented then begin
      let tick = Telemetry.now telemetry in
      let lag =
        match !pending_since with Some t0 -> max 0 (tick - t0) | None -> 0
      in
      Telemetry.emit telemetry
        (Obs.Event.Purge { tick; op = name; input; trigger; victims; lag });
      Telemetry.incr ~by:victims telemetry (name ^ ".purged_tuples");
      Telemetry.observe ~n:victims telemetry (name ^ ".purge_lag") lag
    end
  in
  let emit_purge_round ~trigger ~victims =
    if instrumented then begin
      let tick = Telemetry.now telemetry in
      let lag =
        match !pending_since with Some t0 -> max 0 (tick - t0) | None -> 0
      in
      Telemetry.emit telemetry
        (Obs.Event.Purge_round { tick; op = name; trigger; victims; lag });
      Telemetry.incr telemetry (name ^ ".purge_rounds")
    end
  in
  let record_unmatched ~input ~trigger ~count =
    if count > 0 && instrumented then begin
      Telemetry.emit telemetry
        (Obs.Event.Unmatched
           { tick = Telemetry.now telemetry; op = name; input; trigger; count });
      Telemetry.incr ~by:count telemetry (name ^ ".unmatched_tuples")
    end
  in
  let this_and_other input_name =
    if String.equal input_name l.side.name then (l, r)
    else if String.equal input_name r.side.name then (r, l)
    else
      invalid_arg (Fmt.str "Outer_join %s: unknown input %s" name input_name)
  in
  (* The join-attribute bindings a tuple of [mine] imposes on the opposite
     stream — [Punct_store.covers] over the partner's punctuations decides
     both dead-on-arrival storage and unmatched-result release. *)
  let partner_bindings mine tup =
    let other_slot = if mine == l then r else l in
    List.map
      (fun atom ->
        let _, other_attr = Predicate.other_side atom mine.side.name in
        ( Schema.attr_index other_slot.side.schema other_attr,
          Tuple.get_named tup (Predicate.attr_on atom mine.side.name) ))
      predicates
  in
  let null_key mine tup =
    Array.exists (fun i -> Value.is_null (Tuple.get tup i)) mine.join_idxs
  in
  (* Inner-match probing, compiled once per origin: the two-slot walk from
     {!Probe.orders}, resolved to join-state handles up front. Slot 0 is the
     left side (the [store] states), matching the output attribute order. *)
  let names_arr = [| l.side.name; r.side.name |] in
  let schemas_arr = [| l.side.schema; r.side.schema |] in
  let states_arr =
    [| (if l.store_used then l.store else l.pending); r.store |]
  in
  let orders = Probe.orders [ l.side.name; r.side.name ] predicates in
  let prog_of slot =
    Probe.compile ~names:names_arr ~schemas:schemas_arr ~states:states_arr
      ~steps:(List.assoc slot.side.name orders)
  in
  let l_prog = prog_of l and r_prog = prog_of r in
  let prog_of slot = if slot == l then l_prog else r_prog in
  (* Null-padded unmatched result of a preserved side's tuple. *)
  let unmatched_result slot tup =
    match semantics with
    | Anti -> Tuple.make out_schema (Tuple.values tup)
    | Left | Right | Full ->
        let vals =
          if slot == l then
            Tuple.values tup @ List.init right_arity (fun _ -> Value.Null)
          else
            List.init left_arity (fun _ -> Value.Null) @ Tuple.values tup
        in
        Tuple.make out_schema vals
  in
  let emit_unmatched acc slot ~trigger tuples =
    match tuples with
    | [] -> ()
    | _ ->
        let count = List.length tuples in
        record_unmatched ~input:slot.side.name ~trigger ~count;
        stats := { !stats with tuples_out = !stats.tuples_out + count };
        List.iter
          (fun t -> acc := Element.Data (unmatched_result slot t) :: !acc)
          tuples
  in
  (* A punctuation on [mine] resolves the opposite side: covered pending
     tuples are *released* as unmatched results; covered matched tuples are
     purged. Only the latter count as [tuples_purged] — a release is an
     output, tracked by its Unmatched event. *)
  let resolve_opposite acc mine other ~trigger =
    let covered tup =
      Punct_store.covers mine.puncts (partner_bindings other tup)
    in
    let released = ref [] in
    let n_released =
      if other.preserved then
        Join_state.purge_if other.pending (fun tup ->
            if covered tup then begin
              released := tup :: !released;
              true
            end
            else false)
      else 0
    in
    emit_unmatched acc other ~trigger:"punct" !released;
    (* The released tuples also lived in [store] (outer variants); only the
       covered *matched* remainder counts as purge victims. For the anti
       join's left side the pending set is the whole state and every
       removal was emitted, so nothing is purged. *)
    let purged =
      if other.store_used then Join_state.purge_if other.store covered - n_released
      else 0
    in
    stats := { !stats with tuples_purged = !stats.tuples_purged + purged };
    record_purge ~input:other.side.name ~trigger ~victims:purged;
    purged
  in
  let propagate acc =
    let forward slot =
      (* Forwarding is held until no stored tuple of this side matches the
         punctuation: a pending tuple it covers may yet be released as an
         unmatched result, and a stored match may yet join a future partner
         — either would be late data contradicting the forwarded promise. *)
      let drained p =
        (not (Join_state.exists_matching slot.store p))
        && not (Join_state.exists_matching slot.pending p)
      in
      Punct_store.collect_forwardable slot.puncts ~drained
      |> List.filter_map (fun p ->
             (* A null-padded row sorts below every value, so an ordered
                (watermark) punctuation of a nullable side would be
                contradicted by later unmatched results: consume it. *)
             if slot.nullable_out && Punctuation.is_ordered p then None
             else
               match semantics with
               | Anti ->
                   Some (Punctuation.make out_schema (Punctuation.patterns p))
               | Left | Right | Full ->
                   let lifted =
                     List.map
                       (fun (idx, pat) ->
                         let attr =
                           (Schema.attr_at slot.side.schema idx).Schema.name
                         in
                         ( Schema.qualify_attr ~origin:slot.side.name attr,
                           pat ))
                       (Punctuation.constraints p)
                   in
                   Some (Punctuation.of_constraints out_schema lifted))
    in
    let ps =
      match semantics with
      | Anti -> forward l (* right punctuations are consumed *)
      | Left | Right | Full -> forward l @ forward r
    in
    stats := { !stats with puncts_out = !stats.puncts_out + List.length ps };
    List.iter (fun p -> acc := Element.Punct p :: !acc) ps
  in
  let process acc element =
    incr now;
    let mine, other = this_and_other (Element.stream_name element) in
    match element with
    | Element.Data tup -> (
        stats := { !stats with tuples_in = !stats.tuples_in + 1 };
        let admit =
          if Punct_store.forbids mine.puncts tup then begin
            stats := { !stats with late_tuples = !stats.late_tuples + 1 };
            Contract.handle_late contract ~telemetry ~op:name
              ~input:mine.side.name tup
          end
          else `Admit
        in
        match admit with
        | `Drop -> ()
        | `Admit ->
            if null_key mine tup then begin
              (* SQL equality never accepts Null: the tuple is provably
                 matchless without any punctuation. A preserved side emits
                 it immediately; the other side drops it (never stored, so
                 it is not a purge victim). *)
              if mine.preserved then
                emit_unmatched acc mine ~trigger:"null_key" [ tup ]
            end
            else begin
              Telemetry.incr telemetry c_probes;
              let results = ref [] in
              let matched = ref false in
              let partner_matches = ref [] in
              let tick = Telemetry.now telemetry in
              Probe.run_compiled (prog_of mine) tup ~tick ~emit:(fun arr _ ->
                  matched := true;
                  let partner = if mine == l then arr.(1) else arr.(0) in
                  partner_matches := partner :: !partner_matches;
                  if semantics <> Anti then
                    results := Tuple.concat out_schema arr.(0) arr.(1) :: !results);
              (* The matched partners leave the opposite pending set: for
                 the outer variants they stay in [store] (just no longer
                 unmatched); the anti join disqualifies them outright. *)
              if other.preserved && !matched then begin
                let victims = !partner_matches in
                let removed =
                  Join_state.purge_if other.pending (fun x ->
                      List.exists (fun y -> Tuple.equal x y) victims)
                in
                if semantics = Anti then begin
                  stats :=
                    { !stats with tuples_purged = !stats.tuples_purged + removed };
                  record_purge ~input:other.side.name ~trigger:"disqualified"
                    ~victims:removed
                end
              end;
              let covered =
                Punct_store.covers other.puncts (partner_bindings mine tup)
              in
              (if semantics = Anti && mine == l then begin
                 (* anti semantics: a matched left tuple can never be a
                    result; an unmatched covered one already is *)
                 if !matched then ()
                 else if covered then
                   emit_unmatched acc mine ~trigger:"immediate" [ tup ]
                 else begin
                   Join_state.insert ~tick mine.pending tup;
                   Telemetry.incr telemetry c_inserts
                 end
               end
               else if covered then begin
                 (* dead on arrival for future matching; if preserved and
                    currently unmatched, that is an immediate unmatched
                    result *)
                 if mine.preserved && not !matched then
                   emit_unmatched acc mine ~trigger:"immediate" [ tup ]
               end
               else begin
                 if mine.store_used then begin
                   Join_state.insert ~tick mine.store tup;
                   Telemetry.incr telemetry c_inserts
                 end;
                 if mine.preserved && not !matched then
                   Join_state.insert ~tick mine.pending tup
               end);
              let n_results = List.length !results in
              stats := { !stats with tuples_out = !stats.tuples_out + n_results };
              List.iter (fun t -> acc := Element.Data t :: !acc) !results
            end)
    | Element.Punct p ->
        stats := { !stats with puncts_in = !stats.puncts_in + 1 };
        let informative = Punct_store.insert mine.puncts ~now:!now p in
        if not informative then
          Contract.handle_punct_rejected contract ~telemetry ~op:name
            ~input:mine.side.name ~ordered:(Punctuation.is_ordered p)
        else begin
          if !pending_since = None then
            pending_since := Some (Telemetry.now telemetry);
          stats := { !stats with purge_rounds = !stats.purge_rounds + 1 };
          let victims = resolve_opposite acc mine other ~trigger:"eager" in
          emit_purge_round ~trigger:"eager" ~victims;
          pending_since := None
        end;
        propagate acc
  in
  let push arr =
    let acc = ref [] in
    Array.iter (process acc) arr;
    List.rev !acc
  in
  let flush () =
    (* End of stream proves no partner will ever arrive: every pending
       tuple is an unmatched result, and whatever the stores still hold can
       never produce output — the final-purge dual of Mjoin's flush. *)
    let acc = ref [] in
    let purged =
      List.fold_left
        (fun total slot ->
          let released =
            if slot.preserved then begin
              let held = ref [] in
              let n =
                Join_state.purge_if slot.pending (fun t ->
                    held := t :: !held;
                    true)
              in
              emit_unmatched acc slot ~trigger:"flush" (List.rev !held);
              n
            end
            else 0
          in
          if not slot.store_used then total
          else begin
            (* released tuples also lived in the store; only the matched
               remainder counts as purge victims *)
            let victims =
              Join_state.purge_if slot.store (fun _ -> true) - released
            in
            record_purge ~input:slot.side.name ~trigger:"flush" ~victims;
            total + victims
          end)
        0 [ l; r ]
    in
    if purged > 0 then begin
      stats :=
        {
          !stats with
          tuples_purged = !stats.tuples_purged + purged;
          purge_rounds = !stats.purge_rounds + 1;
        };
      emit_purge_round ~trigger:"flush" ~victims:purged
    end;
    propagate acc;
    List.rev !acc
  in
  let save () =
    let module W = Streams.Wire.W in
    let b = Buffer.create 4096 in
    W.u8 b 1;
    Operator.write_stats b !stats;
    W.int b !now;
    W.option W.int b !pending_since;
    List.iter
      (fun slot ->
        Join_state.write_snapshot b slot.store;
        Join_state.write_snapshot b slot.pending;
        Punct_store.write_snapshot b slot.puncts)
      [ l; r ];
    Buffer.contents b
  in
  let load blob =
    let module R = Streams.Wire.R in
    let r' = R.of_string blob in
    let v = R.u8 r' in
    if v <> 1 then
      raise
        (Streams.Wire.Corrupt
           (Printf.sprintf "Outer_join snapshot version %d, expected 1" v));
    let st = Operator.read_stats r' in
    let n = R.int r' in
    let ps = R.option R.int r' in
    List.iter
      (fun slot ->
        Join_state.read_snapshot slot.store r';
        Join_state.read_snapshot slot.pending r';
        Punct_store.read_snapshot slot.puncts r')
      [ l; r ];
    R.expect_end r';
    stats := st;
    now := n;
    pending_since := ps
  in
  {
    Operator.name;
    out_schema;
    input_names = [ left.name; right.name ];
    push;
    flush;
    data_state_size =
      (fun () ->
        List.fold_left
          (fun acc slot ->
            acc
            + Join_state.size (if slot.store_used then slot.store else slot.pending))
          0 [ l; r ]);
    punct_state_size =
      (fun () -> Punct_store.size l.puncts + Punct_store.size r.puncts);
    index_state_size =
      (fun () ->
        List.fold_left
          (fun acc slot ->
            acc + Join_state.index_entries slot.store
            + Join_state.index_entries slot.pending)
          0 [ l; r ]);
    state_bytes =
      (fun () ->
        List.fold_left
          (fun acc slot ->
            acc
            + (Join_state.mem_stats
                 (if slot.store_used then slot.store else slot.pending))
                .Join_state.approx_bytes)
          0 [ l; r ]);
    stats =
      (fun () ->
        let dropped =
          Punct_store.rejected_count l.puncts
          + Punct_store.rejected_count r.puncts
        in
        let subsumed =
          Punct_store.subsumed_count l.puncts
          + Punct_store.subsumed_count r.puncts
        in
        {
          !stats with
          puncts_dropped = dropped;
          puncts_purged = !stats.puncts_purged + subsumed;
        });
    persistence = Operator.Snapshot { save; load };
  }
