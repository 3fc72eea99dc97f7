(* Tests for the additional punctuation-adapted relational operators
   (the paper's future work (iii)): selection, duplicate elimination and
   watermark-unblocked sort. *)

open Relational
module Element = Streams.Element
module Punctuation = Streams.Punctuation
module Scheme = Streams.Scheme
module Select = Engine.Select
module Dedup = Engine.Dedup
module Sort = Engine.Sort
open Fixtures

let vi i = Value.Int i
let data schema values = Element.Data (tuple schema values)
let punct schema bindings =
  Element.Punct
    (Punctuation.of_bindings schema
       (List.map (fun (a, v) -> (a, vi v)) bindings))

let values_of outputs attr =
  List.filter_map
    (function
      | Element.Data t -> Some (Tuple.get_named t attr) | Element.Punct _ -> None)
    outputs

(* ------------------------------------------------------------------ *)
(* Select *)

let test_select_conditions () =
  List.iter
    (fun (op, v, expected) ->
      let c = { Select.attr = "B"; op; value = vi v } in
      check_bool
        (Fmt.str "B %s %d on B=5" (match op with
           | Select.Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<="
           | Gt -> ">" | Ge -> ">=") v)
        expected
        (Select.eval c (tuple s1 [ 1; 5 ])))
    [
      (Select.Eq, 5, true); (Select.Eq, 6, false);
      (Select.Ne, 5, false); (Select.Ne, 6, true);
      (Select.Lt, 6, true); (Select.Lt, 5, false);
      (Select.Le, 5, true); (Select.Gt, 4, true);
      (Select.Ge, 6, false);
    ]

let test_select_null_never_passes () =
  let c = { Select.attr = "A"; op = Select.Ne; value = vi 1 } in
  check_bool "null fails even <>" false
    (Select.eval c (Tuple.make s1 [ Value.Null; vi 2 ]))

let test_select_operator () =
  let op =
    Select.create ~input:s1
      ~conditions:[ { Select.attr = "B"; op = Select.Ge; value = vi 10 } ]
      ()
  in
  check_int "filtered out" 0
    (List.length (op.Engine.Operator.push [| data s1 [ 1; 5 ] |]));
  check_int "passes" 1
    (List.length (op.Engine.Operator.push [| data s1 [ 1; 15 ] |]));
  check_int "punctuation passes through" 1
    (List.length (op.Engine.Operator.push [| punct s1 [ ("B", 5) ] |]));
  check_int "stateless" 0 (op.Engine.Operator.data_state_size ())

let test_select_unknown_attr () =
  Alcotest.check_raises "unknown"
    (Invalid_argument "Select.create: unknown attribute Z") (fun () ->
      ignore
        (Select.create ~input:s1
           ~conditions:[ { Select.attr = "Z"; op = Select.Eq; value = vi 1 } ]
           ()))

(* ------------------------------------------------------------------ *)
(* Dedup *)

let test_dedup_suppresses_duplicates () =
  let op = Dedup.create ~input:s1 ~key:[ "B" ] () in
  check_int "first" 1 (List.length (op.Engine.Operator.push [| data s1 [ 1; 7 ] |]));
  check_int "duplicate key" 0
    (List.length (op.Engine.Operator.push [| data s1 [ 2; 7 ] |]));
  check_int "new key" 1 (List.length (op.Engine.Operator.push [| data s1 [ 1; 8 ] |]));
  check_int "two keys remembered" 2 (op.Engine.Operator.data_state_size ())

let test_dedup_purges_on_punctuation () =
  let op = Dedup.create ~input:s1 ~key:[ "B" ] () in
  ignore (op.Engine.Operator.push [| data s1 [ 1; 7 ] |]);
  ignore (op.Engine.Operator.push [| data s1 [ 1; 8 ] |]);
  let out = op.Engine.Operator.push [| punct s1 [ ("B", 7) ] |] in
  check_int "punct forwarded" 1 (List.length out);
  check_int "covered key dropped" 1 (op.Engine.Operator.data_state_size ());
  (* a watermark drops every key below it *)
  let op2 = Dedup.create ~input:s1 ~key:[ "B" ] () in
  ignore (op2.Engine.Operator.push [| data s1 [ 1; 7 ] |]);
  ignore (op2.Engine.Operator.push [| data s1 [ 1; 8 ] |]);
  ignore
    (op2.Engine.Operator.push
       [| Element.Punct (Punctuation.watermark s1 "B" (vi 8)) |]);
  check_int "watermark purges below" 1 (op2.Engine.Operator.data_state_size ())

let test_dedup_purgeable_analysis () =
  let key_scheme = Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ] ] in
  let off_key = Scheme.Set.of_list [ Scheme.of_attrs s1 [ "A" ] ] in
  let multi_within =
    Scheme.Set.of_list [ Scheme.of_attrs s1 [ "A"; "B" ] ]
  in
  check_bool "scheme on the key" true
    (Dedup.purgeable ~schemes:key_scheme ~input:s1 ~key:[ "B" ]);
  check_bool "scheme off the key" false
    (Dedup.purgeable ~schemes:off_key ~input:s1 ~key:[ "B" ]);
  check_bool "multi-attr scheme within a wider key" true
    (Dedup.purgeable ~schemes:multi_within ~input:s1 ~key:[ "A"; "B" ]);
  check_bool "multi-attr scheme outside a narrow key" false
    (Dedup.purgeable ~schemes:multi_within ~input:s1 ~key:[ "B" ])

let test_dedup_bounded_on_round_trace () =
  (* On the auction stream, dedup on itemid stays bounded thanks to the
     per-item punctuations. *)
  let op =
    Dedup.create ~input:Workload.Auction.item_schema ~key:[ "itemid" ] ()
  in
  let cfg = { Workload.Auction.default_config with n_items = 200 } in
  let peak = ref 0 in
  List.iter
    (fun e ->
      if Element.stream_name e = "item" then begin
        ignore (op.Engine.Operator.push [| e |]);
        peak := max !peak (op.Engine.Operator.data_state_size ())
      end)
    (Workload.Auction.trace cfg);
  check_bool "seen-set bounded" true (!peak <= 2)

(* ------------------------------------------------------------------ *)
(* Sort *)

let test_sort_blocks_until_watermark () =
  let op = Sort.create ~input:s1 ~by:"B" () in
  check_int "buffers" 0 (List.length (op.Engine.Operator.push [| data s1 [ 1; 9 ] |]));
  check_int "buffers more" 0
    (List.length (op.Engine.Operator.push [| data s1 [ 2; 3 ] |]));
  ignore (op.Engine.Operator.push [| data s1 [ 3; 6 ] |]);
  let out =
    op.Engine.Operator.push [| Element.Punct (Punctuation.watermark s1 "B" (vi 7)) |]
  in
  Alcotest.(check (list (testable Value.pp ( = ))))
    "below the watermark, in order"
    [ vi 3; vi 6 ]
    (values_of out "B");
  check_int "watermark forwarded after batch" 1
    (List.length (List.filter Element.is_punct out));
  check_int "one still buffered" 1 (op.Engine.Operator.data_state_size ())

let test_sort_stable_on_ties () =
  let op = Sort.create ~input:s1 ~by:"B" () in
  ignore (op.Engine.Operator.push [| data s1 [ 1; 5 ] |]);
  ignore (op.Engine.Operator.push [| data s1 [ 2; 5 ] |]);
  let out =
    op.Engine.Operator.push [| Element.Punct (Punctuation.watermark s1 "B" (vi 6)) |]
  in
  Alcotest.(check (list (testable Value.pp ( = ))))
    "arrival order preserved on equal keys"
    [ vi 1; vi 2 ]
    (values_of out "A")

let test_sort_equality_punct_releases_nothing () =
  let op = Sort.create ~input:s1 ~by:"B" () in
  ignore (op.Engine.Operator.push [| data s1 [ 1; 5 ] |]);
  let out = op.Engine.Operator.push [| punct s1 [ ("B", 5) ] |] in
  check_int "no release" 0 (List.length (List.filter Element.is_data out));
  check_int "punct still forwarded" 1
    (List.length (List.filter Element.is_punct out))

let test_sort_flush_drains_in_order () =
  let op = Sort.create ~input:s1 ~by:"B" () in
  List.iter
    (fun b -> ignore (op.Engine.Operator.push [| data s1 [ b; b ] |]))
    [ 9; 2; 7; 4 ];
  let out = op.Engine.Operator.flush () in
  Alcotest.(check (list (testable Value.pp ( = ))))
    "drained ascending"
    [ vi 2; vi 4; vi 7; vi 9 ]
    (values_of out "B");
  check_int "buffer empty" 0 (op.Engine.Operator.data_state_size ())

let test_sort_end_to_end_with_orders () =
  (* The orders workload is watermarked: sorting its order stream by id
     emits ids in ascending order while keeping only the slack buffered. *)
  let op = Sort.create ~input:Workload.Orders.orders_schema ~by:"order_id" () in
  let cfg = { Workload.Orders.default_config with n_orders = 120 } in
  let emitted = ref [] in
  let peak = ref 0 in
  List.iter
    (fun e ->
      if Element.stream_name e = "orders" then begin
        List.iter
          (fun out ->
            match out with
            | Element.Data t -> emitted := Tuple.get_named t "order_id" :: !emitted
            | Element.Punct _ -> ())
          (op.Engine.Operator.push [| e |]);
        peak := max !peak (op.Engine.Operator.data_state_size ())
      end)
    (Workload.Orders.trace cfg);
  List.iter
    (fun out ->
      match out with
      | Element.Data t -> emitted := Tuple.get_named t "order_id" :: !emitted
      | Element.Punct _ -> ())
    (op.Engine.Operator.flush ());
  let ids = List.rev !emitted in
  check_int "all orders emitted" 120 (List.length ids);
  check_bool "ascending" true (List.sort Value.compare ids = ids);
  check_bool "buffer stayed near the watermark period" true (!peak <= 30)

(* ------------------------------------------------------------------ *)
(* Union: punctuation merging / watermark-min *)

let s1b = int_schema "S1b" [ "A"; "B" ]

let test_union_tuples_pass_through () =
  let op = Engine.Union.create ~left:s1 ~right:s1b () in
  check_int "left tuple out" 1
    (List.length (op.Engine.Operator.push [| data s1 [ 1; 2 ] |]));
  check_int "right tuple out" 1
    (List.length (op.Engine.Operator.push [| data s1b [ 3; 4 ] |]))

let test_union_requires_matching_shapes () =
  match Engine.Union.create ~left:s1 ~right:s2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected shape mismatch"

let test_union_holds_one_sided_punctuation () =
  let op = Engine.Union.create ~left:s1 ~right:s1b () in
  check_int "one-sided guarantee held" 0
    (List.length (op.Engine.Operator.push [| punct s1 [ ("B", 7) ] |]));
  (* once the other side punctuates the same value, it is released *)
  let out = op.Engine.Operator.push [| punct s1b [ ("B", 7) ] |] in
  check_int "released when both sides agree" 1 (List.length out)

let test_union_watermark_min_rule () =
  let op = Engine.Union.create ~left:s1 ~right:s1b () in
  check_int "first watermark held" 0
    (List.length
       (op.Engine.Operator.push
          [| Element.Punct (Punctuation.watermark s1 "B" (vi 10)) |]));
  (* right advances to 20: only min(10, 20) = 10 may be emitted *)
  let out =
    op.Engine.Operator.push
      [| Element.Punct (Punctuation.watermark s1b "B" (vi 20)) |]
  in
  (match out with
  | [ Element.Punct p ] ->
      check_bool "output watermark is the min" true
        (Punctuation.covers p [ (1, vi 9) ])
      ;
      check_bool "not beyond the min" false (Punctuation.covers p [ (1, vi 15) ])
  | _ -> Alcotest.fail "expected exactly the min watermark");
  (* left advances to 30: now the held 20 is emittable *)
  let out2 =
    op.Engine.Operator.push
      [| Element.Punct (Punctuation.watermark s1 "B" (vi 30)) |]
  in
  (match out2 with
  | [ Element.Punct p ] ->
      check_bool "advanced to 20" true (Punctuation.covers p [ (1, vi 19) ]);
      check_bool "but not to 30" false (Punctuation.covers p [ (1, vi 25) ])
  | _ -> Alcotest.fail "expected the new min")

(* ------------------------------------------------------------------ *)
(* Antijoin *)

(* The anti semi-join is the [Anti] member of the outer-join family. *)
let anti_of ~left ~right ~predicates =
  let side schema =
    { Engine.Outer_join.name = Schema.stream_name schema; schema; schemes = [] }
  in
  Engine.Outer_join.create ~semantics:Engine.Outer_join.Anti ~left:(side left)
    ~right:(side right) ~predicates ()

let anti () =
  anti_of ~left:s1 ~right:s2 ~predicates:[ Predicate.atom "S1" "B" "S2" "B" ]

let test_antijoin_blocks_without_punctuation () =
  let op = anti () in
  check_int "no emission on arrival" 0
    (List.length (op.Engine.Operator.push [| data s1 [ 1; 7 ] |]));
  check_int "buffered" 1 (op.Engine.Operator.data_state_size ())

let test_antijoin_match_disqualifies () =
  let op = anti () in
  ignore (op.Engine.Operator.push [| data s1 [ 1; 7 ] |]);
  ignore (op.Engine.Operator.push [| data s2 [ 7; 0 ] |]);
  (* the punctuation can no longer release the matched tuple *)
  let out = op.Engine.Operator.push [| punct s2 [ ("B", 7) ] |] in
  check_int "no anti-result" 0 (List.length (List.filter Element.is_data out))

let test_antijoin_punctuation_releases () =
  let op = anti () in
  ignore (op.Engine.Operator.push [| data s1 [ 1; 7 ] |]);
  ignore (op.Engine.Operator.push [| data s1 [ 2; 8 ] |]);
  ignore (op.Engine.Operator.push [| data s2 [ 8; 0 ] |]);
  let out = op.Engine.Operator.push [| punct s2 [ ("B", 7) ] |] in
  (match List.filter Element.is_data out with
  | [ Element.Data t ] ->
      check_bool "the matchless tuple" true (Tuple.get_named t "A" = vi 1)
  | _ -> Alcotest.fail "expected exactly one anti-join result");
  check_int "released tuple dropped, matched one too" 1
    (op.Engine.Operator.data_state_size ())

let test_antijoin_immediate_when_preproven () =
  let op = anti () in
  ignore (op.Engine.Operator.push [| punct s2 [ ("B", 7) ] |]);
  let out = op.Engine.Operator.push [| data s1 [ 1; 7 ] |] in
  check_int "emitted immediately" 1
    (List.length (List.filter Element.is_data out));
  check_int "nothing buffered" 0 (op.Engine.Operator.data_state_size ())

let test_antijoin_watermark_release () =
  let op = anti () in
  ignore (op.Engine.Operator.push [| data s1 [ 1; 5 ] |]);
  ignore (op.Engine.Operator.push [| data s1 [ 2; 9 ] |]);
  let out =
    op.Engine.Operator.push
      [| Element.Punct (Punctuation.watermark s2 "B" (vi 8)) |]
  in
  check_int "below the watermark released" 1
    (List.length (List.filter Element.is_data out))

let test_antijoin_left_punct_purges_right_state () =
  let op = anti () in
  ignore (op.Engine.Operator.push [| data s2 [ 7; 0 ] |]);
  check_int "right remembered" 1 (op.Engine.Operator.data_state_size ());
  let out = op.Engine.Operator.push [| punct s1 [ ("B", 7) ] |] in
  check_int "right tuple dropped" 0 (op.Engine.Operator.data_state_size ());
  check_int "left punctuation forwarded" 1
    (List.length (List.filter Element.is_punct out))

let test_antijoin_auction_unsold_items () =
  (* the natural anti-join question: which items never received a bid? *)
  let cfg = { Workload.Auction.default_config with n_items = 60; bids_per_item = 3 } in
  let trace = Workload.Auction.trace cfg in
  let op =
    anti_of ~left:Workload.Auction.item_schema
      ~right:Workload.Auction.bid_schema
      ~predicates:[ Predicate.atom "item" "itemid" "bid" "itemid" ]
  in
  let unsold = ref 0 in
  List.iter
    (fun e ->
      List.iter
        (fun out -> if Element.is_data out then incr unsold)
        (op.Engine.Operator.push [| e |]))
    trace;
  (* every item gets bids_per_item bids in this workload: zero unsold *)
  check_int "no unsold items" 0 !unsold;
  check_bool "state drained by punctuations" true
    (op.Engine.Operator.data_state_size () <= 1)

(* ------------------------------------------------------------------ *)
(* state breakdown *)

let test_state_breakdown_names_leaking_operator () =
  let q = fig5_query () in
  let tree =
    Query.Plan.join
      [ Query.Plan.join [ Query.Plan.Leaf "S1"; Query.Plan.Leaf "S2" ];
        Query.Plan.Leaf "S3" ]
  in
  let c = Engine.Executor.compile ~config:(Engine.Executor.Config.make ~policy:Engine.Purge_policy.Eager ()) q tree in
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 80 }
  in
  ignore (Engine.Executor.run c (List.to_seq trace));
  let breakdown = Engine.Executor.state_breakdown c in
  check_int "two operators" 2 (List.length breakdown);
  (* the lower (S1 x S2) operator is the leaking one — Figure 7 *)
  let lower_data =
    match breakdown with
    | (b : Engine.Executor.breakdown) :: _ -> b.data
    | [] -> -1
  in
  let upper_data =
    match List.rev breakdown with
    | (b : Engine.Executor.breakdown) :: _ -> b.data
    | [] -> -1
  in
  check_bool "lower leaks" true (lower_data >= 80);
  check_bool "upper bounded" true (upper_data < 10);
  (* the new columns are populated and consistent: indexes stay O(data) *)
  List.iter
    (fun (b : Engine.Executor.breakdown) ->
      check_bool
        (Fmt.str "%s: bytes positive when data held" b.op_name)
        true
        (b.data = 0 || b.bytes > 0);
      check_bool
        (Fmt.str "%s: index >= data (at least one index per state)" b.op_name)
        true
        (b.index >= b.data))
    breakdown

(* ------------------------------------------------------------------ *)
(* memory accounting: every operator charges bytes through Mem_estimate,
   so byte slopes mean the same thing no matter which operator alarms *)

let test_dedup_state_bytes_shared_estimate () =
  let op = Dedup.create ~input:s1 ~key:[ "A" ] () in
  check_int "empty costs nothing" 0 (op.Engine.Operator.state_bytes ());
  for i = 1 to 5 do
    ignore (op.Engine.Operator.push [| data s1 [ i; 0 ] |])
  done;
  check_int "five keys, shared formula"
    (Engine.Mem_estimate.keyed_table_bytes ~key_width:1 ~payload_width:0
       ~entries:5)
    (op.Engine.Operator.state_bytes ())

let test_groupby_state_bytes_shared_estimate () =
  let op =
    Engine.Groupby.create ~input:s1 ~group_by:[ "A" ]
      ~aggregate:(Engine.Groupby.Sum "B") ()
  in
  for i = 1 to 4 do
    (* two tuples per group: entries count groups, not members *)
    ignore (op.Engine.Operator.push [| data s1 [ i mod 2; i ] |])
  done;
  check_int "two groups, key + one accumulator cell"
    (Engine.Mem_estimate.keyed_table_bytes ~key_width:1 ~payload_width:1
       ~entries:2)
    (op.Engine.Operator.state_bytes ())

let () =
  Alcotest.run "relops"
    [
      ( "select",
        [
          Alcotest.test_case "conditions" `Quick test_select_conditions;
          Alcotest.test_case "null" `Quick test_select_null_never_passes;
          Alcotest.test_case "operator" `Quick test_select_operator;
          Alcotest.test_case "unknown attribute" `Quick test_select_unknown_attr;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "suppresses duplicates" `Quick test_dedup_suppresses_duplicates;
          Alcotest.test_case "purges on punctuation" `Quick test_dedup_purges_on_punctuation;
          Alcotest.test_case "purgeable analysis" `Quick test_dedup_purgeable_analysis;
          Alcotest.test_case "bounded on auction" `Quick test_dedup_bounded_on_round_trace;
        ] );
      ( "sort",
        [
          Alcotest.test_case "unblocked by watermark" `Quick test_sort_blocks_until_watermark;
          Alcotest.test_case "stable ties" `Quick test_sort_stable_on_ties;
          Alcotest.test_case "equality punct" `Quick test_sort_equality_punct_releases_nothing;
          Alcotest.test_case "flush drains" `Quick test_sort_flush_drains_in_order;
          Alcotest.test_case "orders end-to-end" `Quick test_sort_end_to_end_with_orders;
        ] );
      ( "union",
        [
          Alcotest.test_case "tuples pass" `Quick test_union_tuples_pass_through;
          Alcotest.test_case "shape check" `Quick test_union_requires_matching_shapes;
          Alcotest.test_case "one-sided punctuation held" `Quick
            test_union_holds_one_sided_punctuation;
          Alcotest.test_case "watermark min rule" `Quick test_union_watermark_min_rule;
        ] );
      ( "antijoin",
        [
          Alcotest.test_case "blocks without punctuation" `Quick
            test_antijoin_blocks_without_punctuation;
          Alcotest.test_case "match disqualifies" `Quick test_antijoin_match_disqualifies;
          Alcotest.test_case "punctuation releases" `Quick test_antijoin_punctuation_releases;
          Alcotest.test_case "pre-proven immediate" `Quick test_antijoin_immediate_when_preproven;
          Alcotest.test_case "watermark release" `Quick test_antijoin_watermark_release;
          Alcotest.test_case "left punct purges right" `Quick
            test_antijoin_left_punct_purges_right_state;
          Alcotest.test_case "auction unsold items" `Quick test_antijoin_auction_unsold_items;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "state breakdown" `Quick
            test_state_breakdown_names_leaking_operator;
        ] );
      ( "memory accounting",
        [
          Alcotest.test_case "dedup uses shared estimator" `Quick
            test_dedup_state_bytes_shared_estimate;
          Alcotest.test_case "groupby uses shared estimator" `Quick
            test_groupby_state_bytes_shared_estimate;
        ] );
    ]
