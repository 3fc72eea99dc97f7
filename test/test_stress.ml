(* Scale tests: the boundedness guarantees must survive volumes well beyond
   what the unit tests exercise, and the engine must stay roughly linear in
   the input. Kept to a few seconds total. *)

module Element = Streams.Element
module Cjq = Query.Cjq
module Plan = Query.Plan
module Executor = Engine.Executor
module Metrics = Engine.Metrics
module Purge_policy = Engine.Purge_policy
open Fixtures

let test_auction_50k_elements () =
  let cfg =
    { Workload.Auction.default_config with n_items = 5000; bids_per_item = 7 }
  in
  let query = Workload.Auction.query () in
  let trace = Workload.Auction.trace cfg in
  check_bool "large trace" true (List.length trace >= 50_000);
  let c =
    Executor.compile query (Plan.mjoin [ "item"; "bid" ])
  in
  let t0 = Sys.time () in
  let r = Executor.run ~sample_every:5000 c (List.to_seq trace) in
  let dt = Sys.time () -. t0 in
  check_int "all bids matched" 35_000
    (List.length (List.filter Element.is_data r.Executor.outputs));
  check_bool "state stays at the auction window" true
    (Metrics.peak_data_state r.Executor.metrics < 50);
  check_bool "finishes fast (linear)" true (dt < 10.0)

let test_three_way_5k_rounds () =
  let q = fig5_query () in
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 5000 }
  in
  let c = Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q (Plan.mjoin [ "S1"; "S2"; "S3" ]) in
  let r = Executor.run ~sample_every:5000 c (List.to_seq trace) in
  check_int "all rounds matched" 5000
    (List.length (List.filter Element.is_data r.Executor.outputs));
  check_bool "bounded" true (Metrics.peak_data_state r.Executor.metrics < 10)

let test_watermark_20k_orders () =
  let cfg = { Workload.Orders.default_config with n_orders = 20_000; slack = 8 } in
  let q = Workload.Orders.query () in
  let trace = Workload.Orders.trace cfg in
  let c =
    Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q
      (Plan.mjoin [ "orders"; "shipments" ])
  in
  let r = Executor.run ~sample_every:10_000 c (List.to_seq trace) in
  check_int "every order shipped" 20_000
    (List.length (List.filter Element.is_data r.Executor.outputs));
  check_bool "state tracks the slack" true
    (Metrics.peak_data_state r.Executor.metrics < 80);
  check_bool "watermarks collapse" true
    (Metrics.peak_punct_state r.Executor.metrics <= 2)

let test_checker_on_100_stream_query () =
  let q = Workload.Synth.chain_query ~n:100 () in
  let t0 = Sys.time () in
  check_bool "tpg verdict" true (Core.Checker.is_safe q);
  check_bool "per-stream purgeability" true
    (List.for_all (Core.Checker.stream_purgeable q) (Cjq.stream_names q));
  check_bool "checker fast at 100 streams" true (Sys.time () -. t0 < 5.0)

let test_dedup_100k_stream () =
  (* 100k tuples, keys arriving in contiguous blocks of 100 duplicates; a
     watermark after each block lets dedup forget it — the seen-set stays
     O(1) instead of O(distinct keys) *)
  let schema = s1 in
  let op = Engine.Dedup.create ~input:schema ~key:[ "B" ] () in
  let distinct = ref 0 and peak = ref 0 in
  for i = 0 to 99_999 do
    let key = i / 100 in
    let out =
      op.Engine.Operator.push [| Element.Data (tuple schema [ i; key ]) |]
    in
    distinct := !distinct + List.length out;
    if i mod 100 = 99 then
      ignore
        (op.Engine.Operator.push
           [| Element.Punct
              (Streams.Punctuation.watermark schema "B"
                 (Relational.Value.Int (key + 1))) |]);
    peak := max !peak (op.Engine.Operator.data_state_size ())
  done;
  check_int "exactly the distinct keys" 1000 !distinct;
  check_bool "seen-set stays O(1)" true (!peak <= 2)

let test_monotone_keys_bounded_indexes () =
  (* Adversarial for the old lazy-compaction indexes: every round joins on a
     brand-new key, so the key domain is unbounded.  Purging removed the
     tuples but left one bucket per key behind — index entries grew forever
     while the tuple counter said "bounded".  With eager index maintenance
     the whole memory triple (tuples, index entries, bytes) must stay O(1). *)
  let module Value = Relational.Value in
  let sa = s1 and sb = s2 in
  let q =
    Cjq.make
      [
        Streams.Stream_def.make sa [ Streams.Scheme.of_attrs sa [ "B" ] ];
        Streams.Stream_def.make sb [ Streams.Scheme.of_attrs sb [ "B" ] ];
      ]
      [ Relational.Predicate.atom "S1" "B" "S2" "B" ]
  in
  let rounds = 20_000 in
  let trace =
    List.concat_map
      (fun k ->
        [
          Element.Data (tuple sa [ k; k ]);
          Element.Data (tuple sb [ k; k + 1 ]);
          Element.Punct
            (Streams.Punctuation.of_bindings sa [ ("B", Value.Int k) ]);
          Element.Punct
            (Streams.Punctuation.of_bindings sb [ ("B", Value.Int k) ]);
        ])
      (List.init rounds (fun i -> i + 1))
  in
  let c =
    Executor.compile
    ~config:
      (Executor.Config.make ~policy:Purge_policy.Eager
         ~punct_lifespan:{ Core.Punct_purge.ttl = 64 }
         ())
      q (Plan.mjoin [ "S1"; "S2" ])
  in
  let r = Executor.run ~sample_every:1 c (List.to_seq trace) in
  check_int "every round joins" rounds
    (List.length (List.filter Element.is_data r.Executor.outputs));
  check_bool "tuples bounded" true (Metrics.peak_data_state r.Executor.metrics < 10);
  check_bool "index entries bounded" true
    (Metrics.peak_index_state r.Executor.metrics < 10);
  check_bool "approx bytes bounded" true
    (Metrics.peak_state_bytes r.Executor.metrics < 100_000);
  check_int "indexes fully drained" 0 (Executor.total_index_state c);
  check_bool "no residual growth" true
    (Float.abs (Metrics.index_growth_slope r.Executor.metrics) < 0.001)

let () =
  Alcotest.run "stress"
    [
      ( "scale",
        [
          Alcotest.test_case "auction 50k elements" `Slow test_auction_50k_elements;
          Alcotest.test_case "3-way 5k rounds" `Slow test_three_way_5k_rounds;
          Alcotest.test_case "watermarks 20k orders" `Slow test_watermark_20k_orders;
          Alcotest.test_case "checker at 100 streams" `Slow test_checker_on_100_stream_query;
          Alcotest.test_case "dedup 100k tuples" `Slow test_dedup_100k_stream;
          Alcotest.test_case "monotone keys: indexes bounded" `Slow
            test_monotone_keys_bounded_indexes;
        ] );
    ]
