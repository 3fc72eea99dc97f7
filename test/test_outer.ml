(* Tests for the punctuation-proven outer-join family (Outer_join): the
   three anti-join correctness regressions — held punctuation
   forwarding, end-of-stream flush release, dead-on-arrival purge
   accounting — the LEFT/RIGHT/FULL/ANTI semantics themselves, the
   checker's per-variant verdicts, batch/element equivalence, telemetry
   replay exactness, and sharded-equals-sequential at every shard count. *)

open Relational
module Element = Streams.Element
module Punctuation = Streams.Punctuation
module Scheme = Streams.Scheme
module Stream_def = Streams.Stream_def
module Cjq = Query.Cjq
module Plan = Query.Plan
module Checker = Core.Checker
module Outer_join = Engine.Outer_join
module Window_join = Engine.Window_join
module Executor = Engine.Executor
module Parallel_executor = Engine.Parallel_executor
module Telemetry = Engine.Telemetry
module Synth = Workload.Synth
open Fixtures

let vi i = Value.Int i
let data schema values = Element.Data (tuple schema values)

let punct schema bindings =
  Element.Punct
    (Punctuation.of_bindings schema
       (List.map (fun (a, v) -> (a, vi v)) bindings))

let b_pred = [ Predicate.atom "S1" "B" "S2" "B" ]

let outer semantics =
  Outer_join.create ~semantics
    ~left:{ Outer_join.name = "S1"; schema = s1; schemes = [] }
    ~right:{ Outer_join.name = "S2"; schema = s2; schemes = [] }
    ~predicates:b_pred ()

let anti () = outer Outer_join.Anti

let push (op : Engine.Operator.t) e = op.Engine.Operator.push [| e |]
let flush (op : Engine.Operator.t) = op.Engine.Operator.flush ()
let stats (op : Engine.Operator.t) = op.Engine.Operator.stats ()

let data_out outs =
  List.filter_map
    (function Element.Data t -> Some t | Element.Punct _ -> None)
    outs

let punct_out outs =
  List.filter_map
    (function Element.Punct p -> Some p | Element.Data _ -> None)
    outs

let values_list t = Tuple.values t

(* Every data element must be consistent with every punctuation emitted
   before it — a data tuple matching an earlier output punctuation is late
   data contradicting a forwarded promise. [Punct_store.forbids] is the
   predicate a downstream operator's input contract applies on arrival, so
   a failure here is exactly what --on-violation fail would abort on. *)
let assert_no_late_output (op : Engine.Operator.t) outs =
  let store = Engine.Punct_store.create op.Engine.Operator.out_schema in
  List.iteri
    (fun i e ->
      match e with
      | Element.Punct p -> ignore (Engine.Punct_store.insert store ~now:i p)
      | Element.Data t ->
          if Engine.Punct_store.forbids store t then
            Alcotest.failf
              "late output: tuple %s contradicts an earlier output \
               punctuation (downstream contract violation)"
              (Tuple.to_string t))
    outs

(* ------------------------------------------------------------------ *)
(* Regression 1 (the headline bug): a left punctuation must not be
   forwarded while a buffered left tuple it covers is unresolved — the
   tuple's later release would be late data downstream. *)

let test_anti_holds_left_punct_until_pending_resolved () =
  let op = anti () in
  let o1 = push op (data s1 [ 1; 7 ]) in
  check_int "left tuple buffers silently" 0 (List.length o1);
  let o2 = push op (punct s1 [ ("B", 7) ]) in
  check_int "left punctuation held while (1,7) is pending" 0
    (List.length (punct_out o2));
  let o3 = push op (punct s2 [ ("B", 7) ]) in
  check_int "right punctuation releases the anti result" 1
    (List.length (data_out o3));
  check_bool "released values" true
    (List.map values_list (data_out o3) = [ [ vi 1; vi 7 ] ]);
  check_int "the held left punctuation follows, now safe" 1
    (List.length (punct_out o3));
  (* the release must precede the forwarded punctuation in stream order *)
  assert_no_late_output op (o1 @ o2 @ o3)

let test_anti_forwards_left_punct_when_nothing_pending () =
  let op = anti () in
  let o = push op (punct s1 [ ("B", 3) ]) in
  check_int "no pending state: forwarded at once" 1
    (List.length (punct_out o));
  (* right punctuations are consumed, never forwarded: the output is a
     sub-stream of the left input *)
  let o2 = push op (punct s2 [ ("B", 3) ]) in
  check_int "right punctuation consumed" 0 (List.length o2)

(* ------------------------------------------------------------------ *)
(* Regression 2: flush must release what end-of-stream proves. *)

let test_anti_flush_releases_pending () =
  let op = anti () in
  check_int "buffered" 0 (List.length (push op (data s1 [ 1; 7 ])));
  check_int "buffered too" 0 (List.length (push op (data s1 [ 2; 9 ])));
  let out = flush op in
  check_bool "flush emits both provably matchless tuples" true
    (List.sort compare (List.map values_list (data_out out))
    = [ [ vi 1; vi 7 ]; [ vi 2; vi 9 ] ]);
  check_int "tuples_out reconciled" 2 (stats op).Engine.Operator.tuples_out;
  check_int "state empty after flush" 0
    (op.Engine.Operator.data_state_size ())

let test_anti_flush_is_empty_when_all_resolved () =
  let op = anti () in
  ignore (push op (data s1 [ 1; 7 ]));
  ignore (push op (data s2 [ 7; 0 ]));
  check_int "matched tuple never becomes a result" 0
    (List.length (data_out (flush op)))

(* ------------------------------------------------------------------ *)
(* Regression 3: a right tuple that arrives already covered by left
   punctuations is dead on arrival — never stored, so it must not count
   as a purge victim (the old operator inflated tuples_purged, breaking
   report/replay verification). *)

let test_anti_dead_on_arrival_not_counted_purged () =
  let op = anti () in
  ignore (push op (punct s1 [ ("B", 7) ]));
  check_int "covered right tuple produces nothing" 0
    (List.length (push op (data s2 [ 7; 0 ])));
  check_int "never stored" 0 (op.Engine.Operator.data_state_size ());
  check_int "and never counted purged" 0
    (stats op).Engine.Operator.tuples_purged

let test_anti_stored_right_tuple_is_counted_purged () =
  let op = anti () in
  ignore (push op (data s2 [ 7; 0 ]));
  ignore (push op (punct s1 [ ("B", 7) ]));
  check_int "stored-then-removed right tuple is a purge victim" 1
    (stats op).Engine.Operator.tuples_purged

(* ------------------------------------------------------------------ *)
(* LEFT / RIGHT / FULL semantics *)

let test_left_outer_semantics () =
  let op = outer Outer_join.Left in
  let inner = push op (data s1 [ 1; 7 ]) @ push op (data s2 [ 7; 5 ]) in
  check_bool "inner match streams out" true
    (List.map values_list (data_out inner) = [ [ vi 1; vi 7; vi 7; vi 5 ] ]);
  ignore (push op (data s1 [ 2; 8 ]));
  let released = push op (punct s2 [ ("B", 8) ]) in
  check_bool "proven-matchless left tuple is null-padded right" true
    (List.map values_list (data_out released)
    = [ [ vi 2; vi 8; Value.Null; Value.Null ] ]);
  (* an unmatched *right* tuple is never a result under LEFT *)
  ignore (push op (data s2 [ 9; 6 ]));
  let purged = push op (punct s1 [ ("B", 9) ]) in
  check_int "right tuple purged silently" 0 (List.length (data_out purged));
  check_int "as a purge victim" 1 (stats op).Engine.Operator.tuples_purged

let test_right_outer_semantics () =
  let op = outer Outer_join.Right in
  ignore (push op (data s2 [ 7; 5 ]));
  let released = push op (punct s1 [ ("B", 7) ]) in
  check_bool "proven-matchless right tuple is null-padded left" true
    (List.map values_list (data_out released)
    = [ [ Value.Null; Value.Null; vi 7; vi 5 ] ])

let test_full_outer_semantics () =
  let op = outer Outer_join.Full in
  ignore (push op (data s1 [ 1; 7 ]));
  ignore (push op (data s2 [ 8; 5 ]));
  let o1 = push op (punct s2 [ ("B", 7) ]) in
  let o2 = push op (punct s1 [ ("B", 8) ]) in
  check_bool "both sides are preserved" true
    (List.map values_list (data_out (o1 @ o2))
    = [
        [ vi 1; vi 7; Value.Null; Value.Null ];
        [ Value.Null; Value.Null; vi 8; vi 5 ];
      ])

let test_full_outer_flush_releases_both_sides () =
  let op = outer Outer_join.Full in
  ignore (push op (data s1 [ 1; 7 ]));
  ignore (push op (data s2 [ 8; 5 ]));
  check_int "flush releases both leftovers" 2
    (List.length (data_out (flush op)))

let test_null_key_rules () =
  (* SQL equality never accepts Null: a null-keyed preserved tuple is
     provably matchless on arrival; on the probed side it is dropped. *)
  let op = outer Outer_join.Left in
  let o = push op (Element.Data (Tuple.make s1 [ vi 3; Value.Null ])) in
  check_bool "null-keyed left tuple emitted immediately" true
    (List.map values_list (data_out o)
    = [ [ vi 3; Value.Null; Value.Null; Value.Null ] ]);
  let o2 = push op (Element.Data (Tuple.make s2 [ Value.Null; vi 1 ])) in
  check_int "null-keyed right tuple dropped" 0 (List.length o2);
  check_int "neither stored nor counted purged" 0
    (stats op).Engine.Operator.tuples_purged;
  check_int "no state" 0 (op.Engine.Operator.data_state_size ())

let test_watermark_consumed_on_nullable_side () =
  (* Null sorts below every value, so a watermark forwarded from the
     null-padded side would be contradicted by later unmatched results:
     ordered punctuations of that side are consumed, not forwarded. *)
  let op = outer Outer_join.Left in
  ignore (push op (data s1 [ 1; 7 ]));
  let o =
    push op (Element.Punct (Punctuation.watermark s2 "B" (vi 10)))
  in
  check_bool "watermark still releases what it proves" true
    (List.map values_list (data_out o)
    = [ [ vi 1; vi 7; Value.Null; Value.Null ] ]);
  check_int "but is consumed, not forwarded" 0 (List.length (punct_out o));
  (* the non-nullable (left) side's watermark forwards once drained *)
  let o2 =
    push op (Element.Punct (Punctuation.watermark s1 "B" (vi 10)))
  in
  check_int "left watermark forwards" 1 (List.length (punct_out o2))

let test_outer_holds_punct_while_store_matches () =
  (* The held-forwarding rule also covers matched store tuples: a stored
     left tuple could still join a future right arrival, producing data
     after the forwarded punctuation. *)
  let op = outer Outer_join.Left in
  ignore (push op (data s1 [ 1; 7 ]));
  ignore (push op (data s2 [ 7; 5 ]));
  let o = push op (punct s1 [ ("B", 7) ]) in
  check_int "left punctuation held while (1,7) can still join" 0
    (List.length (punct_out o));
  let o2 = push op (punct s2 [ ("B", 7) ]) in
  check_int "partner punctuation purges the match" 0
    (List.length (data_out o2));
  (* the release of the held left punctuation, plus the incoming right
     value punctuation (value puncts forward; only ordered ones are
     consumed on the nullable side) *)
  check_int "then the held punctuation forwards" 2
    (List.length (punct_out o2))

(* ------------------------------------------------------------------ *)
(* Properties: one long run = runs of one, for every outer-join kind. *)

let chain2_query () =
  let defs =
    [
      Stream_def.make s1 [ Scheme.of_attrs s1 [ "B" ] ];
      Stream_def.make s2 [ Scheme.of_attrs s2 [ "B" ] ];
    ]
  in
  Cjq.make defs b_pred

let random_binary_trace ~seed =
  Synth.random_trace (chain2_query ()) ~elements_per_stream:40 ~value_range:50
    ~punct_prob:0.5 ~seed

let render outs = List.map (Fmt.to_to_string Element.pp) outs

let prop_batch_equals_element () =
  let mks =
    [
      ("antijoin", anti);
      ("left", fun () -> outer Outer_join.Left);
      ("right", fun () -> outer Outer_join.Right);
      ("full", fun () -> outer Outer_join.Full);
      ( "window",
        fun () ->
          Window_join.create ~window:(Window_join.Ticks 5)
            ~inputs:
              [
                { Window_join.name = "S1"; schema = s1 };
                { Window_join.name = "S2"; schema = s2 };
              ]
            ~predicates:b_pred () );
    ]
  in
  List.iter
    (fun seed ->
      let trace = random_binary_trace ~seed in
      List.iter
        (fun (label, mk) ->
          let one = mk () in
          let out_one =
            List.concat_map (push one) trace @ flush one
          in
          let batched = mk () in
          let out_batched =
            batched.Engine.Operator.push (Array.of_list trace)
            @ flush batched
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s: batch = element (seed %d)" label seed)
            (render out_one) (render out_batched);
          check_bool
            (Printf.sprintf "%s: stats agree (seed %d)" label seed)
            true
            (stats one = stats batched))
        mks)
    [ 1; 2; 3 ]

let prop_anti_no_late_output () =
  (* The held-forwarding guarantee as a stream-wide invariant: on random
     traces, no output tuple ever contradicts an earlier output
     punctuation. *)
  List.iter
    (fun seed ->
      let op = anti () in
      let out =
        List.concat_map (push op) (random_binary_trace ~seed) @ flush op
      in
      assert_no_late_output op out)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Checker verdicts per variant per scheme set *)

let binary_query ?(kind = Cjq.Inner) ~left_schemes ~right_schemes () =
  Cjq.make ~kind
    [ Stream_def.make s1 left_schemes; Stream_def.make s2 right_schemes ]
    b_pred

let scheme_b1 = Scheme.of_attrs s1 [ "B" ]
let scheme_b2 = Scheme.of_attrs s2 [ "B" ]

let check_verdict q kind ~emission ~bounded =
  let r = Checker.check_outer q kind in
  check_bool
    (Fmt.str "%s emission_ok" (Cjq.kind_to_string kind))
    emission r.Checker.emission_ok;
  check_bool
    (Fmt.str "%s bounded" (Cjq.kind_to_string kind))
    bounded r.Checker.bounded;
  check_bool
    (Fmt.str "%s safe" (Cjq.kind_to_string kind))
    (emission && bounded) r.Checker.safe

let test_checker_both_sides_punctuated () =
  let q =
    binary_query ~left_schemes:[ scheme_b1 ] ~right_schemes:[ scheme_b2 ] ()
  in
  List.iter
    (fun kind -> check_verdict q kind ~emission:true ~bounded:true)
    [ Cjq.Left_outer; Cjq.Right_outer; Cjq.Full_outer; Cjq.Anti ]

let test_checker_right_only_scheme () =
  (* Only S2 punctuates B: S1's state is purgeable (so LEFT/ANTI emission
     is provable) but S2's is not (nothing is bounded, and RIGHT/FULL
     cannot even prove their emission). *)
  let q = binary_query ~left_schemes:[] ~right_schemes:[ scheme_b2 ] () in
  check_verdict q Cjq.Left_outer ~emission:true ~bounded:false;
  check_verdict q Cjq.Anti ~emission:true ~bounded:false;
  check_verdict q Cjq.Right_outer ~emission:false ~bounded:false;
  check_verdict q Cjq.Full_outer ~emission:false ~bounded:false

let test_checker_left_only_scheme () =
  let q = binary_query ~left_schemes:[ scheme_b1 ] ~right_schemes:[] () in
  check_verdict q Cjq.Right_outer ~emission:true ~bounded:false;
  check_verdict q Cjq.Left_outer ~emission:false ~bounded:false;
  check_verdict q Cjq.Anti ~emission:false ~bounded:false

let test_checker_is_safe_kind_dispatch () =
  let safe_anti =
    binary_query ~kind:Cjq.Anti ~left_schemes:[ scheme_b1 ]
      ~right_schemes:[ scheme_b2 ] ()
  in
  check_bool "safe anti query" true (Checker.is_safe_kind safe_anti);
  let unsafe_anti =
    binary_query ~kind:Cjq.Anti ~left_schemes:[ scheme_b1 ]
      ~right_schemes:[] ()
  in
  check_bool "anti without right punctuations is unsafe" false
    (Checker.is_safe_kind unsafe_anti);
  check_bool "inner dispatches to is_safe" true
    (Checker.is_safe_kind (fig5_query ()))

let test_checker_outer_rejects_misuse () =
  let q =
    binary_query ~left_schemes:[ scheme_b1 ] ~right_schemes:[ scheme_b2 ] ()
  in
  Alcotest.check_raises "inner kind rejected"
    (Invalid_argument "Checker.check_outer: use check for inner joins")
    (fun () -> ignore (Checker.check_outer q Cjq.Inner));
  Alcotest.check_raises "ternary query rejected"
    (Invalid_argument "Checker.check_outer: outer kinds are binary queries")
    (fun () -> ignore (Checker.check_outer (fig5_query ()) Cjq.Anti))

let test_cjq_outer_kinds_are_binary () =
  Alcotest.check_raises "three-stream anti rejected"
    (Cjq.Invalid "anti join semantics requires exactly two streams")
    (fun () ->
      ignore
        (Cjq.make ~kind:Cjq.Anti
           (List.map (fun s -> Stream_def.make s []) [ s1; s2; s3 ])
           triangle_preds))

(* ------------------------------------------------------------------ *)
(* Grammar: the .query statement and the SQL join clauses *)

let defs_text =
  "stream S1(A:int, B:int)\n\
   stream S2(B:int, C:int)\n\
   scheme S1(_, +)\n\
   scheme S2(+, _)\n"

let query_text kind_line =
  defs_text ^ "join S1.B = S2.B\n" ^ kind_line

let test_parser_semantics_statement () =
  List.iter
    (fun (line, kind) ->
      let q = Query.Parser.parse (query_text line) in
      check_bool ("kind of " ^ line) true (Cjq.kind q = kind);
      (* to_text round-trips the kind *)
      let q' = Query.Parser.parse (Query.Parser.to_text q) in
      check_bool ("round trip of " ^ line) true (Cjq.kind q' = kind))
    [
      ("", Cjq.Inner);
      ("semantics inner\n", Cjq.Inner);
      ("semantics left\n", Cjq.Left_outer);
      ("semantics right\n", Cjq.Right_outer);
      ("semantics full\n", Cjq.Full_outer);
      ("semantics anti\n", Cjq.Anti);
    ]

let test_sql_join_clauses () =
  let defs = Query.Parser.parse_defs defs_text in
  List.iter
    (fun (sql, kind) ->
      let q = (Query.Sql.parse ~defs sql).Query.Sql.cjq in
      check_bool sql true (Cjq.kind q = kind);
      check_bool (sql ^ ": S1 is the left side") true
        (List.hd (Cjq.stream_names q) = "S1"))
    [
      ("SELECT * FROM S1, S2 WHERE S1.B = S2.B", Cjq.Inner);
      ("SELECT * FROM S1 JOIN S2 ON S1.B = S2.B", Cjq.Inner);
      ("SELECT * FROM S1 INNER JOIN S2 ON S1.B = S2.B", Cjq.Inner);
      ("SELECT * FROM S1 LEFT JOIN S2 ON S1.B = S2.B", Cjq.Left_outer);
      ("SELECT * FROM S1 LEFT OUTER JOIN S2 ON S1.B = S2.B", Cjq.Left_outer);
      ("SELECT * FROM S1 RIGHT JOIN S2 ON S1.B = S2.B", Cjq.Right_outer);
      ("SELECT * FROM S1 FULL OUTER JOIN S2 ON S1.B = S2.B", Cjq.Full_outer);
      ("SELECT * FROM S1 ANTI JOIN S2 ON S1.B = S2.B", Cjq.Anti);
    ]

(* ------------------------------------------------------------------ *)
(* End to end: compile from the grammar, run sequential and sharded,
   demand byte-equal output multisets. *)

let parse_kind kind_line = Query.Parser.parse (query_text kind_line)

let run_seq q trace =
  let c = Executor.compile q (Plan.mjoin (Cjq.stream_names q)) in
  let r = Executor.run ~sample_every:50 c (List.to_seq trace) in
  (c, r)

let run_par ~shards q trace =
  let pe = Parallel_executor.create ~shards q (Plan.mjoin (Cjq.stream_names q)) in
  let r = Parallel_executor.run ~sample_every:50 pe (List.to_seq trace) in
  (pe, r)

let test_end_to_end_sharded_equals_sequential () =
  List.iter
    (fun kind_line ->
      let q = parse_kind ("semantics " ^ kind_line ^ "\n") in
      check_bool (kind_line ^ " is safe") true (Checker.is_safe_kind q);
      check_bool (kind_line ^ " partitioning is exact") true
        (Engine.Shard_router.exact
           (Engine.Shard_router.create ~shards:4 q));
      let trace =
        Synth.random_trace q ~elements_per_stream:40 ~value_range:50
          ~punct_prob:0.5 ~seed:7
      in
      let c, sr = run_seq q trace in
      let n_data = List.length (data_out sr.Executor.outputs) in
      check_bool (kind_line ^ " emits unmatched results") true (n_data > 0);
      let seq_hash = Executor.output_hash sr.Executor.outputs in
      List.iter
        (fun shards ->
          let pe, pr = run_par ~shards q trace in
          check_string
            (Printf.sprintf "%s: output multiset at %d shards" kind_line
               shards)
            seq_hash
            (Executor.output_hash pr.Parallel_executor.outputs);
          check_int
            (Printf.sprintf "%s: final state at %d shards" kind_line shards)
            (Executor.total_data_state c)
            (Parallel_executor.total_data_state pe))
        [ 1; 2; 4 ])
    [ "left"; "right"; "full"; "anti" ]

let test_bounded_state_on_round_trace () =
  (* On the fully-punctuated round workload every variant's state returns
     to zero: matched tuples purge, unmatched ones release. *)
  List.iter
    (fun kind_line ->
      let q = parse_kind ("semantics " ^ kind_line ^ "\n") in
      let trace =
        Synth.round_trace q
          { Synth.default_trace_config with rounds = 80; punct_lag = 3 }
      in
      let c, _ = run_seq q trace in
      check_int (kind_line ^ ": empty final state") 0
        (Executor.total_data_state c))
    [ "left"; "right"; "full"; "anti" ]

let test_router_sound_for_kinds () =
  let anti_q = parse_kind "semantics anti\n" in
  check_bool "binary anti is sound" true
    (Engine.Shard_router.sound_for
       (Engine.Shard_router.create ~shards:4 anti_q)
       anti_q);
  (* key-aligned (non-exact) partitioning stays acceptable for inner *)
  let tri = fig5_query () in
  let r = Engine.Shard_router.create ~shards:4 tri in
  check_bool "triangle router is not exact" false (Engine.Shard_router.exact r);
  check_bool "but sound for its inner kind" true
    (Engine.Shard_router.sound_for r tri)

(* ------------------------------------------------------------------ *)
(* Telemetry: stats = registry = trace replay, and the report verifies. *)

let test_unmatched_events_replay_exactly () =
  let q = parse_kind "semantics anti\n" in
  let sink, events = Obs.Sink.memory () in
  let telemetry = Telemetry.create ~sink () in
  let c =
    Executor.compile ~config:(Executor.Config.make ~telemetry ()) q (Plan.mjoin (Cjq.stream_names q))
  in
  let trace =
    Synth.random_trace q ~elements_per_stream:40 ~value_range:50
      ~punct_prob:0.5 ~seed:11
  in
  let r = Executor.run ~sample_every:25 c (List.to_seq trace) in
  Telemetry.close telemetry;
  let events = events () in
  let n_data = List.length (data_out r.Executor.outputs) in
  check_bool "anti results exist" true (n_data > 0);
  let from_events =
    List.fold_left
      (fun acc -> function
        | Obs.Event.Unmatched { count; _ } -> acc + count
        | _ -> acc)
      0 events
  in
  check_int "Unmatched events account for every result" n_data from_events;
  let registry_count =
    Obs.Counters.get
      (Obs.Registry.counters (Telemetry.registry telemetry))
      "J1.unmatched_tuples"
  in
  check_int "registry counter agrees" n_data registry_count;
  (* the op's tuples_out is releases only (anti emits no inner results) *)
  let op = List.hd (Executor.operators ~c) in
  check_int "stats agree" n_data (op.Engine.Operator.stats ()).Engine.Operator.tuples_out;
  match
    Obs.Report.verify
      ~report:(Obs.Report.to_json (Executor.report c r))
      ~events
  with
  | Ok () -> ()
  | Error ps ->
      Alcotest.failf "report/replay verification failed:@.%a"
        Fmt.(list ~sep:cut string)
        ps

let () =
  Alcotest.run "outer"
    [
      ( "anti regressions",
        [
          Alcotest.test_case "held punctuation forwarding" `Quick
            test_anti_holds_left_punct_until_pending_resolved;
          Alcotest.test_case "forwarding when drained" `Quick
            test_anti_forwards_left_punct_when_nothing_pending;
          Alcotest.test_case "flush releases pending" `Quick
            test_anti_flush_releases_pending;
          Alcotest.test_case "flush empty when resolved" `Quick
            test_anti_flush_is_empty_when_all_resolved;
          Alcotest.test_case "dead on arrival is not purged" `Quick
            test_anti_dead_on_arrival_not_counted_purged;
          Alcotest.test_case "stored removal is purged" `Quick
            test_anti_stored_right_tuple_is_counted_purged;
        ] );
      ( "outer semantics",
        [
          Alcotest.test_case "left" `Quick test_left_outer_semantics;
          Alcotest.test_case "right" `Quick test_right_outer_semantics;
          Alcotest.test_case "full" `Quick test_full_outer_semantics;
          Alcotest.test_case "full flush" `Quick
            test_full_outer_flush_releases_both_sides;
          Alcotest.test_case "null keys" `Quick test_null_key_rules;
          Alcotest.test_case "nullable-side watermark consumed" `Quick
            test_watermark_consumed_on_nullable_side;
          Alcotest.test_case "held forwarding over matched store" `Quick
            test_outer_holds_punct_while_store_matches;
        ] );
      ( "properties",
        [
          Alcotest.test_case "batch = element" `Quick prop_batch_equals_element;
          Alcotest.test_case "no late output on random traces" `Quick
            prop_anti_no_late_output;
        ] );
      ( "checker",
        [
          Alcotest.test_case "both sides punctuated" `Quick
            test_checker_both_sides_punctuated;
          Alcotest.test_case "right-only scheme" `Quick
            test_checker_right_only_scheme;
          Alcotest.test_case "left-only scheme" `Quick
            test_checker_left_only_scheme;
          Alcotest.test_case "is_safe_kind dispatch" `Quick
            test_checker_is_safe_kind_dispatch;
          Alcotest.test_case "misuse rejected" `Quick
            test_checker_outer_rejects_misuse;
          Alcotest.test_case "outer kinds are binary" `Quick
            test_cjq_outer_kinds_are_binary;
        ] );
      ( "grammar",
        [
          Alcotest.test_case "semantics statement" `Quick
            test_parser_semantics_statement;
          Alcotest.test_case "sql join clauses" `Quick test_sql_join_clauses;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "sharded = sequential, all kinds" `Slow
            test_end_to_end_sharded_equals_sequential;
          Alcotest.test_case "bounded on round trace" `Quick
            test_bounded_state_on_round_trace;
          Alcotest.test_case "router soundness per kind" `Quick
            test_router_sound_for_kinds;
          Alcotest.test_case "unmatched events replay exactly" `Quick
            test_unmatched_events_replay_exactly;
        ] );
    ]
