(* Tests for the two extensions beyond the paper's letter:
   - ordered (watermark) punctuations — Less_than patterns, Ordered scheme
     marks, store behaviour, runtime purging (the paper's future work (ii));
   - sliding-window joins — §2.2's alternative state-bounding mechanism,
     compared against punctuation purging. *)

open Relational
module Scheme = Streams.Scheme
module Punctuation = Streams.Punctuation
module Element = Streams.Element
module Cjq = Query.Cjq
module Plan = Query.Plan
module Punct_store = Engine.Punct_store
module Join_state = Engine.Join_state
module Window_join = Engine.Window_join
module Executor = Engine.Executor
module Metrics = Engine.Metrics
module Purge_policy = Engine.Purge_policy
open Fixtures

let vi i = Value.Int i
let wm schema attr v = Punctuation.watermark schema attr (vi v)

(* ------------------------------------------------------------------ *)
(* Less_than pattern semantics *)

let test_watermark_matches () =
  let p = wm s1 "B" 10 in
  check_bool "below bound is forbidden" true (Punctuation.matches p (tuple s1 [ 1; 9 ]));
  check_bool "at bound is allowed" false (Punctuation.matches p (tuple s1 [ 1; 10 ]));
  check_bool "above bound is allowed" false (Punctuation.matches p (tuple s1 [ 1; 11 ]))

let test_watermark_covers () =
  let p = wm s1 "B" 10 in
  check_bool "covers smaller value" true (Punctuation.covers p [ (1, vi 5) ]);
  check_bool "does not cover the bound" false (Punctuation.covers p [ (1, vi 10) ]);
  check_bool "irrelevant attr" false (Punctuation.covers p [ (0, vi 5) ])

let test_watermark_subsumption () =
  let early = wm s1 "B" 10 and late = wm s1 "B" 20 in
  check_bool "later subsumes earlier" true (Punctuation.subsumes late early);
  check_bool "not vice versa" false (Punctuation.subsumes early late);
  check_bool "self" true (Punctuation.subsumes late late);
  (* a watermark subsumes a constant below it *)
  let const = Punctuation.of_bindings s1 [ ("B", vi 5) ] in
  check_bool "watermark subsumes small constant" true
    (Punctuation.subsumes (wm s1 "B" 10) const);
  check_bool "not a large constant" false
    (Punctuation.subsumes (wm s1 "B" 10) (Punctuation.of_bindings s1 [ ("B", vi 10) ]));
  check_bool "constant never subsumes a watermark" false
    (Punctuation.subsumes const (wm s1 "B" 3))

let test_watermark_is_ordered () =
  check_bool "watermark" true (Punctuation.is_ordered (wm s1 "B" 10));
  check_bool "constant" false
    (Punctuation.is_ordered (Punctuation.of_bindings s1 [ ("B", vi 5) ]))

(* ------------------------------------------------------------------ *)
(* Ordered schemes *)

let test_ordered_scheme_shape () =
  let sch = Scheme.ordered s1 [ "B" ] in
  Alcotest.(check (list string)) "ordered attrs" [ "B" ] (Scheme.ordered_attrs sch);
  Alcotest.(check (list string)) "counts as punctuatable" [ "B" ]
    (Scheme.punctuatable_attrs sch);
  check_bool "is_ordered" true (Scheme.is_ordered sch "B");
  check_string "rendering" "S1(_, ^)" (Scheme.to_string sch)

let test_ordered_scheme_int_only () =
  Alcotest.check_raises "string attr rejected"
    (Invalid_argument "Scheme.make: ordered attribute name must be an int")
    (fun () ->
      ignore (Scheme.ordered Workload.Auction.item_schema [ "name" ]))

let test_ordered_scheme_instantiate () =
  let sch = Scheme.ordered s1 [ "B" ] in
  let p = Scheme.instantiate sch [ ("B", vi 7) ] in
  check_bool "instantiates its scheme" true (Scheme.instantiates sch p);
  (* the watermark must cover the bound value itself *)
  check_bool "covers 7" true (Punctuation.covers p [ (1, vi 7) ]);
  check_bool "not 8" false (Punctuation.covers p [ (1, vi 8) ]);
  (* a constant punctuation does not instantiate an ordered scheme *)
  check_bool "constant is not an instance" false
    (Scheme.instantiates sch (Punctuation.of_bindings s1 [ ("B", vi 7) ]))

(* ------------------------------------------------------------------ *)
(* Punctuation store with watermarks *)

let test_store_watermark_advance_collapses () =
  let ps = Punct_store.create s1 in
  check_bool "first informative" true (Punct_store.insert ps ~now:0 (wm s1 "B" 10));
  check_bool "advance informative" true (Punct_store.insert ps ~now:1 (wm s1 "B" 20));
  check_int "collapsed to one entry" 1 (Punct_store.size ps);
  check_bool "stale watermark uninformative" false
    (Punct_store.insert ps ~now:2 (wm s1 "B" 15));
  check_int "still one" 1 (Punct_store.size ps);
  check_bool "covers below 20" true (Punct_store.covers ps [ (1, vi 19) ]);
  check_bool "not 20" false (Punct_store.covers ps [ (1, vi 20) ])

let test_store_watermark_absorbs_constants () =
  let ps = Punct_store.create s1 in
  ignore (Punct_store.insert ps ~now:0 (Punctuation.of_bindings s1 [ ("B", vi 3) ]));
  ignore (Punct_store.insert ps ~now:1 (Punctuation.of_bindings s1 [ ("B", vi 30) ]));
  check_int "two constants" 2 (Punct_store.size ps);
  ignore (Punct_store.insert ps ~now:2 (wm s1 "B" 10));
  (* the watermark subsumes the small constant but not the large one *)
  check_int "small constant absorbed" 2 (Punct_store.size ps);
  check_bool "covers absorbed value" true (Punct_store.covers ps [ (1, vi 3) ]);
  check_bool "covers large constant" true (Punct_store.covers ps [ (1, vi 30) ]);
  check_bool "constant below watermark uninformative" false
    (Punct_store.insert ps ~now:3 (Punctuation.of_bindings s1 [ ("B", vi 4) ]))

let test_store_watermark_forbids () =
  let ps = Punct_store.create s1 in
  ignore (Punct_store.insert ps ~now:0 (wm s1 "B" 10));
  check_bool "late tuple flagged" true (Punct_store.forbids ps (tuple s1 [ 1; 5 ]));
  check_bool "fresh tuple fine" false (Punct_store.forbids ps (tuple s1 [ 1; 10 ]))

(* ------------------------------------------------------------------ *)
(* Watermark purging at runtime *)

let ordered_binary_query () =
  Cjq.make
    [
      Streams.Stream_def.make s1 [ Scheme.ordered s1 [ "B" ] ];
      Streams.Stream_def.make s2 [ Scheme.ordered s2 [ "B" ] ];
    ]
    [ Predicate.atom "S1" "B" "S2" "B" ]

let test_ordered_query_is_safe () =
  let q = ordered_binary_query () in
  check_bool "tpg" true (Core.Checker.is_safe q);
  check_bool "pg" true (Core.Checker.is_safe ~method_:Core.Checker.Pg q);
  check_bool "streams purgeable" true
    (List.for_all (Core.Checker.stream_purgeable q) [ "S1"; "S2" ])

let test_watermark_purges_binary_join () =
  let q = ordered_binary_query () in
  let c = Executor.compile q (Plan.mjoin [ "S1"; "S2" ]) in
  let trace =
    [
      Element.Data (tuple s1 [ 1; 5 ]);
      Element.Data (tuple s1 [ 1; 8 ]);
      (* S2's watermark at 8: the B=5 tuple of S1 is dead, B=8 is not *)
      Element.Punct (wm s2 "B" 8);
    ]
  in
  ignore (Executor.run c (List.to_seq trace));
  check_int "one purged, one kept" 1 (Executor.total_data_state c)

let test_watermark_results_complete () =
  let q = Workload.Orders.query () in
  let cfg = { Workload.Orders.default_config with n_orders = 150 } in
  let trace = Workload.Orders.trace cfg in
  check_int "trace well-formed" 0
    (List.length (Streams.Trace.check ~schemes:(Cjq.scheme_set q) trace));
  let c =
    Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q
      (Plan.mjoin [ "orders"; "shipments" ])
  in
  let r = Executor.run ~sample_every:50 c (List.to_seq trace) in
  check_int "every order matched" (Workload.Orders.expected_matches cfg)
    (List.length (List.filter Element.is_data r.Engine.Executor.outputs));
  check_bool "state bounded by the slack window" true
    (Metrics.peak_data_state r.Engine.Executor.metrics < 80);
  check_bool "punct store stays tiny (watermarks collapse)" true
    (Metrics.peak_punct_state r.Engine.Executor.metrics <= 2)

let test_watermark_unsound_without_monotonicity_detected () =
  (* a late tuple behind the watermark is an input violation the trace
     checker reports *)
  let schemes = Scheme.Set.of_list [ Scheme.ordered s1 [ "B" ] ] in
  let bad = [ Element.Punct (wm s1 "B" 10); Element.Data (tuple s1 [ 1; 5 ]) ] in
  check_int "violation detected" 1 (List.length (Streams.Trace.check ~schemes bad))

(* ------------------------------------------------------------------ *)
(* Heartbeats: system-generated watermarks [11] *)

let monotone_source schema n jitter seed =
  let rng = Workload.Rng.create ~seed in
  Streams.Source.of_list
    (List.init n (fun i ->
         let v = max 0 (i - Workload.Rng.int rng (jitter + 1)) in
         Element.Data (tuple schema [ i; v ])))

let test_heartbeat_emits_sound_watermarks () =
  let src = monotone_source s1 200 3 5 in
  let wrapped =
    Streams.Heartbeat.attach ~schema:s1 ~attr:"B" ~every:10 ~slack:3 src
  in
  let trace = List.of_seq wrapped in
  let schemes =
    Scheme.Set.of_list [ Streams.Heartbeat.scheme ~schema:s1 ~attr:"B" ]
  in
  check_int "well-formed under the disorder bound" 0
    (List.length (Streams.Trace.check ~schemes trace));
  check_bool "emitted roughly every 10 elements" true
    (Streams.Trace.punct_count trace >= 15)

let test_heartbeat_never_regresses () =
  let src = monotone_source s1 300 5 7 in
  let wrapped =
    Streams.Heartbeat.attach ~schema:s1 ~attr:"B" ~every:7 ~slack:5 src
  in
  let bounds =
    List.filter_map
      (fun e ->
        match e with
        | Element.Punct p -> (
            match Punctuation.pattern_at p 1 with
            | Punctuation.Less_than (Value.Int v) -> Some v
            | _ -> None)
        | Element.Data _ -> None)
      (List.of_seq wrapped)
  in
  check_bool "strictly increasing bounds" true
    (List.sort_uniq compare bounds = bounds)

let test_heartbeat_detects_excess_disorder () =
  (* disorder 10 against slack 2: the checker must flag late tuples *)
  let src = monotone_source s1 200 10 11 in
  let wrapped =
    Streams.Heartbeat.attach ~schema:s1 ~attr:"B" ~every:5 ~slack:2 src
  in
  let schemes =
    Scheme.Set.of_list [ Streams.Heartbeat.scheme ~schema:s1 ~attr:"B" ]
  in
  check_bool "violations surfaced" true
    (Streams.Trace.check ~schemes (List.of_seq wrapped) <> [])

let test_heartbeat_drives_the_join () =
  (* two heartbeat-wrapped monotone streams joined on the progressing
     attribute: safe under the ordered schemes, state bounded at runtime *)
  let sA = int_schema "HA" [ "id"; "ts" ] in
  let sB = int_schema "HB" [ "id"; "ts" ] in
  let mk schema seed =
    Streams.Heartbeat.attach ~schema ~attr:"ts" ~every:8 ~slack:2
      (Streams.Source.of_list
         (List.init 400 (fun i ->
              Element.Data (tuple schema [ seed + i; i / 2 ]))))
  in
  let q =
    Cjq.make
      [
        Streams.Stream_def.make sA [ Streams.Heartbeat.scheme ~schema:sA ~attr:"ts" ];
        Streams.Stream_def.make sB [ Streams.Heartbeat.scheme ~schema:sB ~attr:"ts" ];
      ]
      [ Predicate.atom "HA" "ts" "HB" "ts" ]
  in
  check_bool "safe under heartbeat schemes" true (Core.Checker.is_safe q);
  let im =
    Streams.Input_manager.create [ ("HA", mk sA 0); ("HB", mk sB 1000) ]
  in
  let c = Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q (Plan.mjoin [ "HA"; "HB" ]) in
  let r =
    Executor.run ~sample_every:100 c (Streams.Input_manager.sequence im)
  in
  check_bool "matches found" true
    (List.length (List.filter Element.is_data r.Engine.Executor.outputs) > 0);
  check_bool "state bounded by slack and heartbeat period" true
    (Metrics.peak_data_state r.Engine.Executor.metrics < 120)

(* ------------------------------------------------------------------ *)
(* Window joins *)

let window_inputs () =
  [
    { Window_join.name = "S1"; schema = s1 };
    { Window_join.name = "S2"; schema = s2 };
  ]

let bin_preds = [ Predicate.atom "S1" "B" "S2" "B" ]

let test_window_join_matches_within_window () =
  let op =
    Window_join.create ~window:(Window_join.Count 2) ~inputs:(window_inputs ())
      ~predicates:bin_preds ()
  in
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 1; 7 ]) |]);
  let out = op.Engine.Operator.push [| Element.Data (tuple s2 [ 7; 9 ]) |] in
  check_int "match inside window" 1 (List.length out)

let test_window_join_misses_evicted () =
  let op =
    Window_join.create ~window:(Window_join.Count 1) ~inputs:(window_inputs ())
      ~predicates:bin_preds ()
  in
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 1; 7 ]) |]);
  (* a second S1 tuple evicts the first (count window of 1) *)
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 2; 8 ]) |]);
  let out = op.Engine.Operator.push [| Element.Data (tuple s2 [ 7; 9 ]) |] in
  check_int "evicted partner missed" 0 (List.length out);
  check_int "state bounded" 2 (op.Engine.Operator.state ()).data

let test_window_join_tick_eviction () =
  let op =
    Window_join.create ~window:(Window_join.Ticks 2) ~inputs:(window_inputs ())
      ~predicates:bin_preds ()
  in
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 1; 7 ]) |]);
  ignore (op.Engine.Operator.push [| Element.Data (tuple s2 [ 99; 0 ]) |]);
  ignore (op.Engine.Operator.push [| Element.Data (tuple s2 [ 98; 0 ]) |]);
  (* the S1 tuple is now 3 ticks old and evicted *)
  let out = op.Engine.Operator.push [| Element.Data (tuple s2 [ 7; 9 ]) |] in
  check_int "expired partner missed" 0 (List.length out)

let test_window_join_ignores_punctuations () =
  let op =
    Window_join.create ~window:(Window_join.Count 10) ~inputs:(window_inputs ())
      ~predicates:bin_preds ()
  in
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 1; 7 ]) |]);
  let out =
    op.Engine.Operator.push
      [| Element.Punct (Punctuation.of_bindings s2 [ ("B", vi 7) ]) |]
  in
  check_int "no output" 0 (List.length out);
  check_int "nothing purged" 1 (op.Engine.Operator.state ()).data

let test_window_join_rejects_bad_config () =
  Alcotest.check_raises "non-positive window"
    (Invalid_argument "Window_join.create: non-positive window") (fun () ->
      ignore
        (Window_join.create ~window:(Window_join.Count 0)
           ~inputs:(window_inputs ()) ~predicates:bin_preds ()))

(* Window vs punctuation, head to head on the auction workload: the window
   join is bounded but lossy when undersized; the punctuated join is
   bounded and exact. *)
let test_window_vs_punctuation_on_auction () =
  let cfg = { Workload.Auction.default_config with n_items = 120; bids_per_item = 6 } in
  let q = Workload.Auction.query () in
  let trace = Workload.Auction.trace cfg in
  let exact = Workload.Synth.brute_force_results q trace in
  (* punctuated join: exact *)
  let c = Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q (Plan.mjoin [ "item"; "bid" ]) in
  let rp = Executor.run c (List.to_seq trace) in
  check_int "punctuation join exact" exact
    (List.length (List.filter Element.is_data rp.Engine.Executor.outputs));
  (* small window join: bounded but lossy *)
  let wj =
    Window_join.create ~window:(Window_join.Ticks 20)
      ~inputs:
        [
          { Window_join.name = "item"; schema = Workload.Auction.item_schema };
          { Window_join.name = "bid"; schema = Workload.Auction.bid_schema };
        ]
      ~predicates:(Cjq.predicates q) ()
  in
  let found = ref 0 in
  List.iter
    (fun e ->
      List.iter
        (fun out -> if Element.is_data out then incr found)
        (wj.Engine.Operator.push [| e |]))
    trace;
  check_bool "window join bounded" true ((wj.Engine.Operator.state ()).data <= 40);
  check_bool "window join lossy" true (!found < exact)

let () =
  Alcotest.run "extensions"
    [
      ( "watermark patterns",
        [
          Alcotest.test_case "matches" `Quick test_watermark_matches;
          Alcotest.test_case "covers" `Quick test_watermark_covers;
          Alcotest.test_case "subsumption" `Quick test_watermark_subsumption;
          Alcotest.test_case "is_ordered" `Quick test_watermark_is_ordered;
        ] );
      ( "ordered schemes",
        [
          Alcotest.test_case "shape" `Quick test_ordered_scheme_shape;
          Alcotest.test_case "int only" `Quick test_ordered_scheme_int_only;
          Alcotest.test_case "instantiate" `Quick test_ordered_scheme_instantiate;
        ] );
      ( "store",
        [
          Alcotest.test_case "advance collapses" `Quick test_store_watermark_advance_collapses;
          Alcotest.test_case "absorbs constants" `Quick test_store_watermark_absorbs_constants;
          Alcotest.test_case "forbids" `Quick test_store_watermark_forbids;
        ] );
      ( "watermark runtime",
        [
          Alcotest.test_case "query safe" `Quick test_ordered_query_is_safe;
          Alcotest.test_case "purges binary join" `Quick test_watermark_purges_binary_join;
          Alcotest.test_case "orders workload complete" `Quick test_watermark_results_complete;
          Alcotest.test_case "violations detected" `Quick
            test_watermark_unsound_without_monotonicity_detected;
        ] );
      ( "heartbeats",
        [
          Alcotest.test_case "sound watermarks" `Quick test_heartbeat_emits_sound_watermarks;
          Alcotest.test_case "never regress" `Quick test_heartbeat_never_regresses;
          Alcotest.test_case "excess disorder detected" `Quick
            test_heartbeat_detects_excess_disorder;
          Alcotest.test_case "drives a join" `Quick test_heartbeat_drives_the_join;
        ] );
      ( "window join",
        [
          Alcotest.test_case "matches in window" `Quick test_window_join_matches_within_window;
          Alcotest.test_case "misses evicted" `Quick test_window_join_misses_evicted;
          Alcotest.test_case "tick eviction" `Quick test_window_join_tick_eviction;
          Alcotest.test_case "ignores punctuations" `Quick test_window_join_ignores_punctuations;
          Alcotest.test_case "bad config" `Quick test_window_join_rejects_bad_config;
          Alcotest.test_case "window vs punctuation" `Quick
            test_window_vs_punctuation_on_auction;
        ] );
    ]
