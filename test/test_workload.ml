open Relational
module Element = Streams.Element
module Trace = Streams.Trace
module Cjq = Query.Cjq
module Rng = Workload.Rng
module Zipf = Workload.Zipf
module Auction = Workload.Auction
module Netmon = Workload.Netmon
module Synth = Workload.Synth
open Fixtures

(* ------------------------------------------------------------------ *)
(* Rng / Zipf *)

let test_rng_deterministic () =
  let draw seed = List.init 10 (fun _ -> Rng.int (Rng.create ~seed) 100) in
  ignore (draw 1);
  let a = List.init 10 (fun _ -> 0) in
  ignore a;
  let r1 = Rng.create ~seed:5 and r2 = Rng.create ~seed:5 in
  let xs = List.init 20 (fun _ -> Rng.int r1 1000) in
  let ys = List.init 20 (fun _ -> Rng.int r2 1000) in
  Alcotest.(check (list int)) "same seed, same sequence" xs ys

let test_rng_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.fail "out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of bounds"
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_sample_and_shuffle () =
  let rng = Rng.create ~seed:11 in
  let xs = [ 1; 2; 3; 4; 5 ] in
  let sampled = Rng.sample rng 3 xs in
  check_int "three distinct" 3 (List.length (List.sort_uniq compare sampled));
  check_bool "subset" true (List.for_all (fun x -> List.mem x xs) sampled);
  let shuffled = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "permutation" xs (List.sort compare shuffled)

let test_zipf_skew () =
  let rng = Rng.create ~seed:17 in
  let z = Zipf.create ~n:10 ~theta:1.0 in
  let counts = Array.make 11 0 in
  for _ = 1 to 5000 do
    let r = Zipf.draw z rng in
    if r < 1 || r > 10 then Alcotest.fail "rank out of range";
    counts.(r) <- counts.(r) + 1
  done;
  check_bool "rank 1 hottest" true (counts.(1) > counts.(10));
  check_bool "monotone-ish" true (counts.(1) > counts.(5))

let test_zipf_uniform_theta_zero () =
  let rng = Rng.create ~seed:23 in
  let z = Zipf.create ~n:4 ~theta:0.0 in
  let counts = Array.make 5 0 in
  for _ = 1 to 8000 do
    let r = Zipf.draw z rng in
    counts.(r) <- counts.(r) + 1
  done;
  Array.iteri
    (fun i c -> if i >= 1 && (c < 1600 || c > 2400) then
        Alcotest.failf "rank %d count %d too far from uniform" i c)
    counts

let test_zipf_single_rank () =
  let rng = Rng.create ~seed:31 in
  let z = Zipf.create ~n:1 ~theta:1.0 in
  check_int "domain size" 1 (Zipf.n z);
  for _ = 1 to 200 do
    check_int "only rank" 1 (Zipf.draw z rng)
  done

let test_zipf_draws_stay_in_range () =
  (* Regression: float accumulation used to leave the last cumulative
     weight a few ulps below 1.0, so a draw above it walked off the end.
     Large n and both extremes of theta chase that tail bucket. *)
  List.iter
    (fun theta ->
      let rng = Rng.create ~seed:41 in
      let z = Zipf.create ~n:1000 ~theta in
      for _ = 1 to 20_000 do
        let r = Zipf.draw z rng in
        if r < 1 || r > 1000 then
          Alcotest.failf "theta %.1f: rank %d out of [1,1000]" theta r
      done)
    [ 0.0; 0.5; 1.0; 5.0 ]

let test_zipf_rejects_bad_args () =
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Zipf.create ~n:0 ~theta:1.0));
  Alcotest.check_raises "negative theta"
    (Invalid_argument "Zipf.create: theta must be >= 0") (fun () ->
      ignore (Zipf.create ~n:3 ~theta:(-0.1)))

(* ------------------------------------------------------------------ *)
(* Auction *)

let test_auction_query_is_safe () =
  let q = Auction.query () in
  check_bool "safe" true (Core.Checker.is_safe q)

let test_auction_trace_well_formed () =
  let cfg = { Auction.default_config with n_items = 40 } in
  let trace = Auction.trace cfg in
  check_int "well-formed" 0
    (List.length (Trace.check ~schemes:(Cjq.scheme_set (Auction.query ())) trace))

let test_auction_trace_counts () =
  let cfg = { Auction.default_config with n_items = 30; bids_per_item = 4 } in
  let trace = Auction.trace cfg in
  check_int "items" 30 (Trace.data_count (Trace.for_stream trace "item"));
  check_int "bids" 120 (Trace.data_count (Trace.for_stream trace "bid"));
  (* one item punct per item + one close punct per item *)
  check_int "item puncts" 30 (Trace.punct_count (Trace.for_stream trace "item"));
  check_int "bid puncts" 30 (Trace.punct_count (Trace.for_stream trace "bid"))

let test_auction_punct_knobs () =
  let cfg =
    { Auction.default_config with n_items = 10; punct_items = false; punct_bid_close = false }
  in
  check_int "no punctuations" 0 (Trace.punct_count (Auction.trace cfg))

let test_auction_expected_sums_consistent () =
  let cfg = { Auction.default_config with n_items = 20; bids_per_item = 3 } in
  let sums = Auction.expected_sums cfg in
  check_int "every item has bids" 20 (List.length sums);
  check_bool "positive sums" true (List.for_all (fun (_, s) -> s > 0.0) sums)

let test_auction_overlap_respected () =
  let cfg = { Auction.default_config with n_items = 50; overlap = 3 } in
  let trace = Auction.trace cfg in
  (* replay: open auctions never exceed the overlap bound *)
  let open_count = ref 0 and max_open = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Element.Data t when Schema.stream_name (Tuple.schema t) = "item" ->
          incr open_count;
          if !open_count > !max_open then max_open := !open_count
      | Element.Punct p
        when Schema.stream_name (Streams.Punctuation.schema p) = "bid" ->
          decr open_count
      | _ -> ())
    trace;
  check_bool "bounded by overlap" true (!max_open <= 3)

(* ------------------------------------------------------------------ *)
(* Netmon *)

let test_netmon_query_safe () =
  check_bool "safe" true (Core.Checker.is_safe (Netmon.query ()))

let test_netmon_trace_well_formed () =
  let cfg = { Netmon.default_config with n_flows = 20 } in
  let trace = Netmon.trace cfg in
  check_int "well-formed" 0
    (List.length (Trace.check ~schemes:(Cjq.scheme_set (Netmon.query ())) trace))

let test_netmon_expected_matches () =
  let cfg = { Netmon.default_config with n_flows = 15; packets_per_flow = 6 } in
  let trace = Netmon.trace cfg in
  check_int "brute force agrees" (Netmon.expected_matches cfg)
    (Synth.brute_force_results (Netmon.query ()) trace)

let test_netmon_seq_wrap_extra_matches () =
  (* With a tiny sequence space, wrapped numbers collide within a flow. *)
  let cfg = { Netmon.default_config with n_flows = 5; packets_per_flow = 6; seq_space = 3 } in
  check_int "expected formula" (5 * (2 * 2 * 3)) (Netmon.expected_matches cfg);
  check_int "brute force agrees" (Netmon.expected_matches cfg)
    (Synth.brute_force_results (Netmon.query ()) (Netmon.trace cfg))

let test_netmon_dropped_fins () =
  let cfg = { Netmon.default_config with n_flows = 30; drop_fin_prob = 1.0 } in
  check_int "no punctuations at all" 0 (Trace.punct_count (Netmon.trace cfg))

(* ------------------------------------------------------------------ *)
(* Synth *)

let test_synth_random_query_valid () =
  for seed = 0 to 30 do
    let q =
      Synth.random_query { Synth.default_query_config with seed; n_streams = 5 }
    in
    check_int "five streams" 5 (Cjq.n_streams q);
    check_bool "connected" true (Query.Join_graph.is_connected (Cjq.join_graph q))
  done

let test_synth_chain_and_cycle_shapes () =
  let chain = Synth.chain_query ~n:5 () in
  check_bool "chain safe" true (Core.Checker.is_safe chain);
  check_bool "chain acyclic" false (Query.Join_graph.is_cyclic (Cjq.join_graph chain));
  let cycle = Synth.cycle_query ~n:5 () in
  check_bool "cycle safe as a whole" true (Core.Checker.is_safe cycle);
  check_bool "cycle is cyclic" true (Query.Join_graph.is_cyclic (Cjq.join_graph cycle));
  (* no proper binary tree is safe on the cycle *)
  check_bool "no safe binary plan" true
    (List.for_all
       (fun p -> not (Core.Checker.plan_safe cycle p))
       (Query.Plan_enum.binary_plans (Cjq.stream_names cycle)))

let test_synth_round_trace_well_formed_and_counted () =
  let q = Synth.cycle_query ~n:3 () in
  let cfg = { Synth.default_trace_config with rounds = 40; tuples_per_round = 2 } in
  let trace = Synth.round_trace q cfg in
  check_int "well-formed" 0
    (List.length (Trace.check ~schemes:(Cjq.scheme_set q) trace));
  check_int "brute force = rounds * tuples" 80
    (Synth.brute_force_results q trace)

let test_synth_round_trace_punct_lag () =
  let q = Synth.cycle_query ~n:3 () in
  let cfg = { Synth.default_trace_config with rounds = 10; punct_lag = 3 } in
  let trace = Synth.round_trace q cfg in
  check_int "still well-formed with lag" 0
    (List.length (Trace.check ~schemes:(Cjq.scheme_set q) trace));
  (* all punctuations still arrive eventually *)
  check_int "punct count" (10 * 3) (Trace.punct_count trace)

let test_synth_random_trace_well_formed () =
  for seed = 0 to 10 do
    let q = fig5_query () in
    let trace =
      Synth.random_trace q ~elements_per_stream:30 ~value_range:6
        ~punct_prob:0.5 ~seed
    in
    check_int "well-formed" 0
      (List.length (Trace.check ~schemes:(Cjq.scheme_set q) trace))
  done

(* The trace generators emit each key in its attribute's declared type,
   so a query joined on str and float attributes (the README's shape) runs
   on a well-formed trace, and the engine's generic-key index finds every
   match. A bool attribute cannot carry a key and is refused. *)
let test_synth_typed_keys () =
  let q =
    Query.Parser.parse
      "stream item(itemid:str, price:float, seller:int)\n\
       stream bid(itemid:str, amount:float)\n\
       scheme item(+, _, _)\nscheme bid(+, _)\n\
       join item.itemid = bid.itemid\njoin item.price = bid.amount\n"
  in
  let trace =
    Synth.round_trace q
      { Synth.default_trace_config with rounds = 30; tuples_per_round = 2;
        punct_lag = 2 }
  in
  check_int "well-formed" 0
    (List.length (Trace.check ~schemes:(Cjq.scheme_set q) trace));
  check_bool "str and float values" true
    (List.exists
       (function
         | Element.Data t ->
             Tuple.get t 0 = Value.Str "7" && Tuple.get t 1 = Value.Float 7.0
         | Element.Punct _ -> false)
       trace);
  let expected = Synth.brute_force_results q trace in
  check_int "brute force = rounds * tuples" 60 expected;
  let c =
    Engine.Executor.compile q (Query.Plan.mjoin (Cjq.stream_names q))
  in
  let r = Engine.Executor.run c (List.to_seq trace) in
  check_int "engine = brute force" expected r.Engine.Executor.emitted;
  let random =
    Synth.random_trace q ~elements_per_stream:30 ~value_range:5
      ~punct_prob:0.5 ~seed:4
  in
  check_int "random trace well-formed" 0
    (List.length (Trace.check ~schemes:(Cjq.scheme_set q) random));
  let with_bool =
    Query.Parser.parse
      "stream a(k:int, flag:bool)\nstream b(k:int)\nscheme a(+, _)\n\
       scheme b(+)\njoin a.k = b.k\n"
  in
  match Synth.round_trace with_bool Synth.default_trace_config with
  | _ -> Alcotest.fail "a bool attribute must be refused"
  | exception Synth.Unkeyable_attribute { stream; attr } ->
      check_bool "names the attribute" true (stream = "a" && attr = "flag")

let () =
  Alcotest.run "workload"
    [
      ( "rng/zipf",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "sample/shuffle" `Quick test_rng_sample_and_shuffle;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform_theta_zero;
          Alcotest.test_case "zipf single rank" `Quick test_zipf_single_rank;
          Alcotest.test_case "zipf draws in range" `Quick
            test_zipf_draws_stay_in_range;
          Alcotest.test_case "zipf bad args" `Quick test_zipf_rejects_bad_args;
        ] );
      ( "auction",
        [
          Alcotest.test_case "query safe" `Quick test_auction_query_is_safe;
          Alcotest.test_case "trace well-formed" `Quick test_auction_trace_well_formed;
          Alcotest.test_case "counts" `Quick test_auction_trace_counts;
          Alcotest.test_case "punctuation knobs" `Quick test_auction_punct_knobs;
          Alcotest.test_case "expected sums" `Quick test_auction_expected_sums_consistent;
          Alcotest.test_case "overlap bound" `Quick test_auction_overlap_respected;
        ] );
      ( "netmon",
        [
          Alcotest.test_case "query safe" `Quick test_netmon_query_safe;
          Alcotest.test_case "trace well-formed" `Quick test_netmon_trace_well_formed;
          Alcotest.test_case "expected matches" `Quick test_netmon_expected_matches;
          Alcotest.test_case "sequence wrap" `Quick test_netmon_seq_wrap_extra_matches;
          Alcotest.test_case "dropped FINs" `Quick test_netmon_dropped_fins;
        ] );
      ( "synth",
        [
          Alcotest.test_case "random query valid" `Quick test_synth_random_query_valid;
          Alcotest.test_case "chain/cycle shapes" `Quick test_synth_chain_and_cycle_shapes;
          Alcotest.test_case "round trace" `Quick test_synth_round_trace_well_formed_and_counted;
          Alcotest.test_case "punctuation lag" `Quick test_synth_round_trace_punct_lag;
          Alcotest.test_case "random trace well-formed" `Quick test_synth_random_trace_well_formed;
          Alcotest.test_case "str and float keys" `Quick test_synth_typed_keys;
        ] );
    ]
