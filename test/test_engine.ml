open Relational
module Scheme = Streams.Scheme
module Punctuation = Streams.Punctuation
module Element = Streams.Element
module Cjq = Query.Cjq
module Plan = Query.Plan
module Join_state = Engine.Join_state
module Punct_store = Engine.Punct_store
module Purge_policy = Engine.Purge_policy
module Metrics = Engine.Metrics
module Mjoin = Engine.Mjoin
module Groupby = Engine.Groupby
module Project = Engine.Project
module Executor = Engine.Executor
open Fixtures

let punct schema bindings =
  Punctuation.of_bindings schema
    (List.map (fun (a, v) -> (a, Value.Int v)) bindings)

(* ------------------------------------------------------------------ *)
(* Join_state *)

(* The state's one index probe on attribute [attr]; the first probe on an
   attribute builds its index. *)
let probe st ~attr v =
  Join_state.probe_handle st (Join_state.index_on st ~attr) v

(* The index cases run once per key type: S1(A, B) on int columns and on
   str columns, with how an integer becomes a key of each. Every index
   keeps its buckets in one table, so both must behave alike. *)
let key_types =
  let str_s1 =
    Schema.make ~stream:"S1"
      [
        { Schema.name = "A"; ty = Value.TStr };
        { Schema.name = "B"; ty = Value.TStr };
      ]
  in
  [
    (s1, fun i -> Value.Int i);
    (str_s1, fun i -> Value.Str (Printf.sprintf "k%d" i));
  ]

let on_every_key_type case () =
  List.iter (fun (schema, key) -> case schema key) key_types

let entries st = (Join_state.mem_stats st).Join_state.index_entries
let buckets st = (Join_state.mem_stats st).Join_state.buckets

let test_join_state_insert_size () =
  let st = Join_state.create s1 in
  Join_state.insert st (tuple s1 [ 1; 2 ]);
  Join_state.insert st (tuple s1 [ 3; 4 ]);
  check_int "size" 2 (Join_state.size st);
  check_int "insertions" 2 (Join_state.insertions st)

let test_join_state_probe schema key =
  let row a b = Tuple.make schema [ key a; key b ] in
  let st = Join_state.create schema in
  Join_state.insert st (row 1 7);
  Join_state.insert st (row 2 7);
  Join_state.insert st (row 3 8);
  check_int "two with B=7" 2
    (List.length (probe st ~attr:1 (key 7)));
  check_int "none with B=9" 0
    (List.length (probe st ~attr:1 (key 9)));
  Join_state.insert st (row 4 7);
  check_int "index sees later insert" 3
    (List.length (probe st ~attr:1 (key 7)));
  check_bool "entries carry insertion ticks, newest first" true
    (List.map fst (probe st ~attr:1 (key 7)) = [ 3; 1; 0 ]);
  Join_state.insert st (Tuple.make schema [ key 5; Value.Null ]);
  check_int "a Null key is never indexed" 4 (entries st);
  check_int "Null matches nothing" 0
    (List.length (probe st ~attr:1 Value.Null))

let test_join_state_purge () =
  let st = Join_state.create s1 in
  List.iter (fun b -> Join_state.insert st (tuple s1 [ b; b ])) [ 1; 2; 3; 4 ];
  ignore (probe st ~attr:1 (Value.Int 1));
  let removed = Join_state.purge_if st (fun t -> Tuple.get t 0 < Value.Int 3) in
  check_int "removed" 2 removed;
  check_int "left" 2 (Join_state.size st);
  check_int "B=1 gone from index too" 0
    (List.length (probe st ~attr:1 (Value.Int 1)))

let test_join_state_ids_and_matching () =
  let st = Join_state.create s1 in
  Join_state.insert st (tuple s1 [ 1; 7 ]);
  Join_state.insert st (tuple s1 [ 2; 7 ]);
  Join_state.insert st (tuple s1 [ 3; 8 ]);
  check_bool "no index yet" true (Join_state.find_index st ~attr:1 = None);
  check_bool "find" true (Join_state.find st 1 = Some (tuple s1 [ 2; 7 ]));
  let h = Join_state.index_on st ~attr:1 in
  check_bool "index found" true (Join_state.find_index st ~attr:1 <> None);
  check_bool "no other index" true (Join_state.find_index st ~attr:0 = None);
  check_int "ids in B=7 bucket" 2
    (List.length (Join_state.probe_ids st h (Value.Int 7)));
  check_int "remove live ids only" 1 (Join_state.remove st [ 0; 0; 9 ]);
  check_bool "removed" true (Join_state.find st 0 = None);
  check_bool "bucket shrank" true
    (List.map fst (Join_state.probe_ids st h (Value.Int 7)) = [ 1 ]);
  let ids = ref [] in
  Join_state.iteri (fun id _ -> ids := id :: !ids) st;
  check_bool "iteri" true (List.sort compare !ids = [ 1; 2 ]);
  check_int "indexes never built by id access" 1
    (Join_state.mem_stats st).Join_state.indexes;
  check_bool "matching" true (Join_state.exists_matching st (punct s1 [ ("B", 7) ]));
  check_bool "not matching" false
    (Join_state.exists_matching st (punct s1 [ ("B", 9) ]))

let test_join_state_schema_mismatch () =
  let st = Join_state.create s1 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Join_state.insert: schema mismatch") (fun () ->
      Join_state.insert st (tuple s2 [ 1; 2 ]))

(* Purging must clean the secondary indexes, not just the live table:
   buckets left behind once leaked memory under unique keys while the
   tuple count stayed flat. *)
let test_join_state_purge_cleans_indexes schema key =
  let st = Join_state.create schema in
  List.iter
    (fun b -> Join_state.insert st (Tuple.make schema [ key b; key b ]))
    [ 1; 2; 3; 4 ];
  ignore (probe st ~attr:1 (key 1));
  check_int "entries before" 4 (entries st);
  check_int "buckets before" 4 (buckets st);
  ignore
    (Join_state.purge_if st (fun t ->
         Value.compare (Tuple.get t 0) (key 3) < 0));
  check_int "entries track live" 2 (entries st);
  check_int "emptied buckets dropped" 2 (buckets st);
  ignore (Join_state.purge_if st (fun _ -> true));
  let m = Join_state.mem_stats st in
  check_int "no entries left" 0 m.Join_state.index_entries;
  check_int "no buckets left" 0 m.Join_state.buckets;
  check_int "index survives" 1 m.Join_state.indexes

let test_join_state_evict_cleans_indexes schema key =
  let st = Join_state.create schema in
  List.iteri
    (fun i b ->
      Join_state.insert ~tick:i st (Tuple.make schema [ key b; key b ]))
    [ 1; 2; 3; 4 ];
  (* two indexes on different attrs: both must be maintained *)
  ignore (probe st ~attr:0 (key 1));
  ignore (probe st ~attr:1 (key 1));
  check_int "entries = live x indexes" 8 (entries st);
  check_int "evicted" 3 (Join_state.evict_before st ~tick:3);
  check_int "entries after evict" 2 (entries st);
  check_int "buckets after evict" 2 (buckets st);
  check_int "evict rest" 1 (Join_state.evict_before st ~tick:99);
  check_int "all buckets dropped" 0 (buckets st)

let test_join_state_probe_after_purge_no_empty_buckets schema key =
  let st = Join_state.create schema in
  Join_state.insert st (Tuple.make schema [ key 1; key 7 ]);
  ignore (probe st ~attr:1 (key 7));
  ignore (Join_state.purge_if st (fun _ -> true));
  (* probing purged and never-seen keys must not leave buckets behind *)
  check_int "probe after purge" 0
    (List.length (probe st ~attr:1 (key 7)));
  check_int "probe miss" 0
    (List.length (probe st ~attr:1 (key 42)));
  check_int "no buckets" 0 (buckets st);
  (* the index keeps serving correct results after cleanup *)
  Join_state.insert st (Tuple.make schema [ key 2; key 7 ]);
  check_int "reinserted key probes" 1
    (List.length (probe st ~attr:1 (key 7)))

let test_join_state_mem_stats_bounded_under_unique_keys schema key =
  (* the adversarial pattern in miniature: every key is used once, then
     purged; without index maintenance entries/buckets grow with i *)
  let st = Join_state.create schema in
  let one_tuple_bytes =
    Engine.Mem_estimate.tuple_bytes schema
    + Engine.Mem_estimate.list_cell_bytes
    + Engine.Mem_estimate.table_entry_bytes ~width:1
  in
  for i = 1 to 500 do
    Join_state.insert st (Tuple.make schema [ key i; key i ]);
    ignore (probe st ~attr:1 (key i));
    check_int "one tuple, entry and bucket" one_tuple_bytes
      (Join_state.mem_stats st).Join_state.approx_bytes;
    ignore
      (Join_state.purge_if st (fun t -> Value.equal (Tuple.get t 1) (key i)));
    let m = Join_state.mem_stats st in
    check_bool "entries bounded" true (m.Join_state.index_entries <= 1);
    check_bool "buckets bounded" true (m.Join_state.buckets <= 1)
  done;
  check_int "all inserted" 500 (Join_state.insertions st);
  check_int "approx bytes at zero state" 0
    ((Join_state.mem_stats st).Join_state.approx_bytes)

(* ------------------------------------------------------------------ *)
(* Punct_store *)

let test_punct_store_insert_covers () =
  let ps = Punct_store.create s1 in
  check_bool "fresh" true (Punct_store.insert ps ~now:0 (punct s1 [ ("B", 7) ]));
  check_int "size" 1 (Punct_store.size ps);
  check_bool "covers" true (Punct_store.covers ps [ (1, Value.Int 7) ]);
  check_bool "covers with extra bindings" true
    (Punct_store.covers ps [ (0, Value.Int 1); (1, Value.Int 7) ]);
  check_bool "no cover" false (Punct_store.covers ps [ (1, Value.Int 8) ])

let test_punct_store_subsumption () =
  let ps = Punct_store.create s1 in
  ignore (Punct_store.insert ps ~now:0 (punct s1 [ ("B", 7) ]));
  check_bool "subsumed dropped" false
    (Punct_store.insert ps ~now:1 (punct s1 [ ("A", 1); ("B", 7) ]));
  check_int "still one" 1 (Punct_store.size ps);
  let ps2 = Punct_store.create s1 in
  ignore (Punct_store.insert ps2 ~now:0 (punct s1 [ ("A", 1); ("B", 7) ]));
  ignore (Punct_store.insert ps2 ~now:1 (punct s1 [ ("B", 7) ]));
  check_int "narrow replaced by wide" 1 (Punct_store.size ps2);
  check_bool "wide guarantee kept" true (Punct_store.covers ps2 [ (1, Value.Int 7) ])

let test_punct_store_duplicate () =
  let ps = Punct_store.create s1 in
  ignore (Punct_store.insert ps ~now:0 (punct s1 [ ("B", 7) ]));
  check_bool "duplicate uninformative" false
    (Punct_store.insert ps ~now:1 (punct s1 [ ("B", 7) ]))

let test_punct_store_forbids () =
  let ps = Punct_store.create s1 in
  ignore (Punct_store.insert ps ~now:0 (punct s1 [ ("B", 7) ]));
  check_bool "violating tuple" true (Punct_store.forbids ps (tuple s1 [ 1; 7 ]));
  check_bool "ok tuple" false (Punct_store.forbids ps (tuple s1 [ 1; 8 ]))

let test_punct_store_expire () =
  let ps = Punct_store.create s1 in
  ignore (Punct_store.insert ps ~now:0 (punct s1 [ ("B", 1) ]));
  ignore (Punct_store.insert ps ~now:50 (punct s1 [ ("B", 2) ]));
  let dropped = Punct_store.expire ps ~now:60 { Core.Punct_purge.ttl = 20 } in
  check_int "old one dropped" 1 dropped;
  check_bool "young survives" true (Punct_store.covers ps [ (1, Value.Int 2) ])

let test_punct_store_forwarded_flag () =
  let ps = Punct_store.create s1 in
  let p = punct s1 [ ("B", 7) ] in
  ignore (Punct_store.insert ps ~now:0 p);
  check_bool "initially not forwarded" false (Punct_store.is_forwarded ps p);
  Punct_store.mark_forwarded ps p;
  check_bool "marked" true (Punct_store.is_forwarded ps p)

(* expire/purge_if symmetry: a punctuation removed from the store must also
   leave the forward queue and its (emptied) index group. *)
let test_punct_store_purge_symmetry () =
  let ps = Punct_store.create s1 in
  ignore (Punct_store.insert ps ~now:0 (punct s1 [ ("B", 1) ]));
  ignore (Punct_store.insert ps ~now:0 (punct s1 [ ("A", 5); ("B", 2) ]));
  check_int "two groups" 2 (Punct_store.group_count ps);
  check_int "two pending" 2 (Punct_store.pending_count ps);
  check_int "purged" 2 (Punct_store.purge_if ps (fun _ -> true));
  check_int "size empty" 0 (Punct_store.size ps);
  check_int "groups dropped" 0 (Punct_store.group_count ps);
  check_int "pending dropped" 0 (Punct_store.pending_count ps);
  check_int "nothing forwardable" 0
    (List.length (Punct_store.collect_forwardable ps ~drained:(fun _ -> true)))

let test_punct_store_expire_clears_pending () =
  let ps = Punct_store.create s1 in
  ignore (Punct_store.insert ps ~now:0 (punct s1 [ ("B", 1) ]));
  ignore (Punct_store.insert ps ~now:50 (punct s1 [ ("B", 2) ]));
  ignore (Punct_store.expire ps ~now:60 { Core.Punct_purge.ttl = 20 });
  check_int "only the survivor pending" 1 (Punct_store.pending_count ps);
  let forwarded =
    Punct_store.collect_forwardable ps ~drained:(fun _ -> true)
  in
  check_int "only the survivor forwarded" 1 (List.length forwarded);
  check_bool "it is the young one" true
    (Streams.Punctuation.equal (List.hd forwarded) (punct s1 [ ("B", 2) ]))

(* A watermark displaced by a later one is still queued for forwarding; a
   snapshot taken then used to fail to restore ("pending punctuation not
   in store"). *)
let test_punct_store_snapshot_subsumed_pending () =
  let ps = Punct_store.create s1 in
  ignore (Punct_store.insert ps ~now:1 (Punctuation.watermark s1 "B" (Value.Int 5)));
  ignore (Punct_store.insert ps ~now:2 (Punctuation.watermark s1 "B" (Value.Int 9)));
  check_int "one stored" 1 (Punct_store.size ps);
  check_int "both pending" 2 (Punct_store.pending_count ps);
  let buf = Buffer.create 64 in
  Punct_store.write_snapshot buf ps;
  let restored = Punct_store.create s1 in
  Punct_store.read_snapshot restored (Streams.Wire.R.of_string (Buffer.contents buf));
  check_int "one stored after restore" 1 (Punct_store.size restored);
  check_int "both forwarded after restore" 2
    (List.length
       (Punct_store.collect_forwardable restored ~drained:(fun _ -> true)))

(* ------------------------------------------------------------------ *)
(* Purge policy / metrics *)

let test_purge_policy_due () =
  let due p ~pending ~state =
    Purge_policy.due p ~punctuations_pending:pending ~state_size:state
  in
  check_bool "eager" true (due Purge_policy.Eager ~pending:1 ~state:0);
  check_bool "eager idle" false (due Purge_policy.Eager ~pending:0 ~state:99);
  check_bool "lazy below" false (due (Purge_policy.Lazy 5) ~pending:4 ~state:0);
  check_bool "lazy at" true (due (Purge_policy.Lazy 5) ~pending:5 ~state:0);
  check_bool "never" false (due Purge_policy.Never ~pending:100 ~state:1000);
  let adaptive = Purge_policy.Adaptive { batch = 10; state_trigger = 50 } in
  check_bool "adaptive small state waits" false (due adaptive ~pending:3 ~state:10);
  check_bool "adaptive batch fires" true (due adaptive ~pending:10 ~state:10);
  check_bool "adaptive pressure fires" true (due adaptive ~pending:1 ~state:60);
  check_bool "adaptive needs a punctuation" false (due adaptive ~pending:0 ~state:600)

let test_metrics_series_and_slope () =
  let m = Metrics.create () in
  List.iteri
    (fun i st -> Metrics.force m ~tick:i ~data_state:st ~punct_state:0 ~emitted:0 ())
    [ 0; 10; 20; 30; 40; 50 ];
  check_int "peak" 50 (Metrics.peak_data_state m);
  check_bool "positive slope" true (Metrics.growth_slope m > 5.0);
  let flat = Metrics.create () in
  List.iter
    (fun i -> Metrics.force flat ~tick:i ~data_state:7 ~punct_state:0 ~emitted:0 ())
    [ 0; 1; 2; 3 ];
  check_bool "flat slope" true (Float.abs (Metrics.growth_slope flat) < 0.01)

(* The closing sample is flush's: it replaces a same-tick grid point,
   never duplicates it, and a run shorter than sample_every — whose ticks
   (1-based) never reach a grid point — still records exactly one sample,
   the closing one. *)
let test_metrics_flush_contract () =
  let g = Metrics.create () in
  Metrics.force g ~tick:5 ~data_state:10 ~punct_state:0 ~emitted:0 ();
  Metrics.flush g ~tick:5 ~data_state:0 ~punct_state:0 ~emitted:0 ();
  check_int "no duplicate final point" 1 (List.length (Metrics.samples g));
  (match Metrics.final g with
  | Some s -> check_int "post-flush value wins" 0 s.Metrics.data_state
  | None -> Alcotest.fail "expected a final sample");
  let c = Executor.compile (fig5_query ()) (Plan.mjoin [ "S1"; "S2"; "S3" ]) in
  let short =
    [
      Element.Data (tuple s1 [ 1; 7 ]);
      Element.Data (tuple s2 [ 7; 2 ]);
      Element.Data (tuple s1 [ 2; 8 ]);
    ]
  in
  let m = (Executor.run ~sample_every:100 c (List.to_seq short)).Executor.metrics in
  match Metrics.samples m with
  | [ s ] ->
      check_int "the closing tick" 3 s.Metrics.tick;
      check_int "peak visible" 3 (Metrics.peak_data_state m);
      check_bool "index peak visible" true (Metrics.peak_index_state m >= 3)
  | l -> Alcotest.failf "short run: expected one closing sample, got %d" (List.length l)

(* The one feeding loop every driver shares: runs never exceed the cap,
   every grid multiple ends one, and a resumed start offsets the ticks. *)
let test_grid_feed_cuts_at_the_grid () =
  let elements n =
    List.init n (fun i ->
        Element.Data (tuple (int_schema "R" [ "K"; "A" ]) [ i; i ]))
  in
  List.iter
    (fun (cap, start) ->
      let runs = ref [] and points = ref [] in
      let last =
        Engine.Grid.feed ~start ~sample_every:10 ~cap
          ~run:(fun ~base arr -> runs := (base, Array.length arr) :: !runs)
          ~point:(fun ~tick -> points := tick :: !points)
          (List.to_seq (elements 95))
      in
      let runs = List.rev !runs and points = List.rev !points in
      let name what = Printf.sprintf "cap %d, start %d: %s" cap start what in
      check_int (name "last tick") (start + 95) last;
      check_bool (name "runs tile the ticks") true
        (fst
           (List.fold_left
              (fun (ok, next) (base, len) -> (ok && base = next, base + len))
              (true, start) runs));
      check_bool (name "no run longer than cap") true
        (List.for_all (fun (_, len) -> len >= 1 && len <= cap) runs);
      let multiples =
        List.init 95 (fun i -> start + i + 1)
        |> List.filter (fun t -> t mod 10 = 0)
      in
      check_bool (name "every multiple of 10 ends a run") true
        (List.for_all
           (fun m -> List.exists (fun (base, len) -> base + len = m) runs)
           multiples);
      check_bool (name "one point per multiple") true (points = multiples))
    [ (1, 0); (7, 0); (64, 0); (7, 23); (64, 30) ]

(* ------------------------------------------------------------------ *)
(* Binary join: a two-input Mjoin *)

let binary_mjoin () =
  Mjoin.create
    ~inputs:
      [
        { Mjoin.name = "S1"; schema = s1; schemes = [ Scheme.of_attrs s1 [ "B" ] ] };
        { Mjoin.name = "S2"; schema = s2; schemes = [ Scheme.of_attrs s2 [ "B" ] ] };
      ]
    ~predicates:[ Predicate.atom "S1" "B" "S2" "B" ]
    ()

let test_binary_join_matches () =
  let op = binary_mjoin () in
  check_int "no early match" 0
    (List.length (op.Engine.Operator.push [| Element.Data (tuple s1 [ 1; 7 ]) |]));
  let out = op.Engine.Operator.push [| Element.Data (tuple s2 [ 7; 100 ]) |] in
  check_int "one match" 1 (List.length out);
  (match out with
  | [ Element.Data t ] ->
      check_bool "joined values" true
        (Tuple.get_named t "S1.A" = Value.Int 1
        && Tuple.get_named t "S2.C" = Value.Int 100)
  | _ -> Alcotest.fail "expected one data element");
  check_int "both stored" 2 (op.Engine.Operator.state ()).data

let test_binary_join_purges_opposite () =
  let op = binary_mjoin () in
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 1; 7 ]) |]);
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 2; 8 ]) |]);
  ignore (op.Engine.Operator.push [| Element.Punct (punct s2 [ ("B", 7) ]) |]);
  check_int "one left" 1 (op.Engine.Operator.state ()).data;
  check_int "purged count" 1 (op.Engine.Operator.stats ()).Engine.Operator.tuples_purged

let test_binary_join_never_loses_results () =
  let op = binary_mjoin () in
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 1; 7 ]) |]);
  ignore (op.Engine.Operator.push [| Element.Punct (punct s2 [ ("B", 7) ]) |]);
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 2; 8 ]) |]);
  let out = op.Engine.Operator.push [| Element.Data (tuple s2 [ 8; 5 ]) |] in
  check_int "late match found" 1
    (List.length (List.filter Element.is_data out))

let test_binary_join_drops_dead_on_arrival () =
  (* the auction pattern: the punctuation that kills a tuple arrives BEFORE
     the tuple does; it must emit its matches and not be stored (otherwise
     it sits in state until the next punctuation's round — bench T1's
     peak) *)
  let op = binary_mjoin () in
  ignore (op.Engine.Operator.push [| Element.Data (tuple s2 [ 7; 100 ]) |]);
  ignore (op.Engine.Operator.push [| Element.Punct (punct s2 [ ("B", 7) ]) |]);
  let out = op.Engine.Operator.push [| Element.Data (tuple s1 [ 1; 7 ]) |] in
  check_int "still emits its matches" 1
    (List.length (List.filter Element.is_data out));
  (* only the S2 tuple remains; the dead S1 arrival was never stored *)
  check_int "not stored" 1 (op.Engine.Operator.state ()).data;
  check_int "counted as purged" 1
    (op.Engine.Operator.stats ()).Engine.Operator.tuples_purged

let test_binary_join_propagates_drained_punct () =
  let op = binary_mjoin () in
  let out = op.Engine.Operator.push [| Element.Punct (punct s1 [ ("B", 7) ]) |] in
  let puncts = List.filter Element.is_punct out in
  check_int "propagated immediately when no matching state" 1 (List.length puncts);
  match puncts with
  | [ Element.Punct p ] ->
      check_bool "pins lifted attribute" true
        (Punctuation.covers p
           [ (Schema.attr_index (Punctuation.schema p) "S1.B", Value.Int 7) ])
  | _ -> Alcotest.fail "expected punct"

let test_binary_join_delays_punct_until_drained () =
  let op = binary_mjoin () in
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 1; 7 ]) |]);
  let out = op.Engine.Operator.push [| Element.Punct (punct s1 [ ("B", 7) ]) |] in
  check_int "not yet propagated" 0
    (List.length (List.filter Element.is_punct out));
  let out2 = op.Engine.Operator.push [| Element.Punct (punct s2 [ ("B", 7) ]) |] in
  check_int "both propagate after drain" 2
    (List.length (List.filter Element.is_punct out2))

(* ------------------------------------------------------------------ *)
(* MJoin *)

let mjoin_inputs schemes =
  List.map2
    (fun schema sch -> { Mjoin.name = Schema.stream_name schema; schema; schemes = sch })
    [ s1; s2; s3 ] schemes

let fig5_mjoin ?policy () =
  Mjoin.create ?policy
    ~inputs:
      (mjoin_inputs
         [ [ Scheme.of_attrs s1 [ "B" ] ];
           [ Scheme.of_attrs s2 [ "C" ] ];
           [ Scheme.of_attrs s3 [ "A" ] ] ])
    ~predicates:triangle_preds ()

let test_mjoin_three_way_match () =
  let op = fig5_mjoin () in
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 1; 2 ]) |]);
  ignore (op.Engine.Operator.push [| Element.Data (tuple s2 [ 2; 3 ]) |]);
  let out = op.Engine.Operator.push [| Element.Data (tuple s3 [ 3; 1 ]) |] in
  check_int "full match" 1 (List.length (List.filter Element.is_data out));
  match List.filter Element.is_data out with
  | [ Element.Data t ] ->
      check_int "six attributes" 6 (Tuple.arity t);
      check_bool "values" true
        (Tuple.get_named t "S1.A" = Value.Int 1
        && Tuple.get_named t "S2.C" = Value.Int 3
        && Tuple.get_named t "S3.A" = Value.Int 1)
  | _ -> Alcotest.fail "expected one tuple"

let test_mjoin_respects_all_predicates () =
  let op = fig5_mjoin () in
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 1; 2 ]) |]);
  ignore (op.Engine.Operator.push [| Element.Data (tuple s2 [ 2; 3 ]) |]);
  let out = op.Engine.Operator.push [| Element.Data (tuple s3 [ 3; 99 ]) |] in
  check_int "triangle must close" 0
    (List.length (List.filter Element.is_data out))

let test_mjoin_purge_plans () =
  let inputs =
    mjoin_inputs
      [ [ Scheme.of_attrs s1 [ "B" ] ];
        [ Scheme.of_attrs s2 [ "C" ] ];
        [ Scheme.of_attrs s3 [ "A" ] ] ]
  in
  let plans = Mjoin.purge_plans ~inputs ~predicates:triangle_preds in
  check_bool "all inputs purgeable" true
    (List.for_all (fun (_, p) -> p <> None) plans);
  let partial = mjoin_inputs [ [ Scheme.of_attrs s1 [ "B" ] ]; []; [] ] in
  let plans' = Mjoin.purge_plans ~inputs:partial ~predicates:triangle_preds in
  (* S2 reaches only S1 through the lone edge: nobody can purge *)
  check_bool "nobody purgeable" true
    (List.for_all (fun (_, p) -> p = None) plans')

let test_mjoin_chained_purge_runtime () =
  let op = fig5_mjoin () in
  ignore (op.Engine.Operator.push [| Element.Data (tuple s1 [ 1; 2 ]) |]);
  check_int "stored" 1 (op.Engine.Operator.state ()).data;
  (* S2's punctuation alone leaves the chain open through S3 *)
  ignore (op.Engine.Operator.push [| Element.Punct (punct s2 [ ("B", 2) ]) |]);
  check_int "still stored" 1 (op.Engine.Operator.state ()).data;
  (* S3's punctuation on A=1 completes the chain for the S1 tuple *)
  ignore (op.Engine.Operator.push [| Element.Punct (punct s3 [ ("A", 1) ]) |]);
  check_int "purged once chain covered" 0 (op.Engine.Operator.state ()).data

let count_data outputs = List.length (List.filter Element.is_data outputs)

let test_mjoin_policies_agree_on_results () =
  let q = fig5_query () in
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 30 }
  in
  let run policy =
    let c = Executor.compile ~config:(Executor.Config.make ~policy ()) q (Plan.mjoin [ "S1"; "S2"; "S3" ]) in
    count_data (Executor.run c (List.to_seq trace)).Executor.outputs
  in
  let eager = run Purge_policy.Eager in
  check_int "eager = never" (run Purge_policy.Never) eager;
  check_int "lazy = never" (run (Purge_policy.Lazy 10)) eager;
  check_int "adaptive = never"
    (run (Purge_policy.Adaptive { batch = 20; state_trigger = 10 }))
    eager;
  check_int "expected count" 30 eager

let test_adaptive_policy_caps_state () =
  let q = fig5_query () in
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 200 }
  in
  let peak policy =
    let c = Executor.compile ~config:(Executor.Config.make ~policy ()) q (Plan.mjoin [ "S1"; "S2"; "S3" ]) in
    Metrics.peak_data_state
      (Executor.run ~sample_every:10 c (List.to_seq trace)).Executor.metrics
  in
  let lazy_peak = peak (Purge_policy.Lazy 1000) in
  let adaptive_peak =
    peak (Purge_policy.Adaptive { batch = 1000; state_trigger = 30 })
  in
  check_bool "lazy balloons" true (lazy_peak > 100);
  (* the trigger fires at the next punctuation after 30 stored tuples *)
  check_bool "adaptive caps near its trigger" true (adaptive_peak <= 40)

let test_mjoin_unknown_input_rejected () =
  let op = fig5_mjoin () in
  Alcotest.check_raises "unknown input"
    (Invalid_argument "Mjoin mjoin: element for unknown input bid") (fun () ->
      ignore
        (op.Engine.Operator.push
           [| Element.Data
              (Tuple.make Workload.Auction.bid_schema
                 [ Value.Int 1; Value.Int 2; Value.Float 1.0 ]) |]))

(* ------------------------------------------------------------------ *)
(* Equivalence properties *)

let binary_query () =
  let defs =
    [
      Streams.Stream_def.make s1 [ Scheme.of_attrs s1 [ "B" ] ];
      Streams.Stream_def.make s2 [ Scheme.of_attrs s2 [ "B" ] ];
    ]
  in
  Cjq.make defs [ Predicate.atom "S1" "B" "S2" "B" ]

(* The binary join once had a second operator, the PJoin-style
   Sym_hash_join; the property keeps its name. Mjoin now carries that
   operator's dead-on-arrival rule, so the binary join is checked under
   Eager (tuples dropped on arrival), Lazy and Never (every tuple stored)
   against brute force. *)
let prop_pjoin_equals_mjoin =
  QCheck2.Test.make ~name:"Sym_hash_join = Mjoin = brute force" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let q = binary_query () in
      let trace =
        Workload.Synth.random_trace q ~elements_per_stream:40 ~value_range:8
          ~punct_prob:0.7 ~seed
      in
      let plan = Plan.mjoin [ "S1"; "S2" ] in
      let run policy =
        let c = Executor.compile ~config:(Executor.Config.make ~policy ()) q plan in
        count_data (Executor.run c (List.to_seq trace)).Executor.outputs
      in
      let expected = Workload.Synth.brute_force_results q trace in
      run Purge_policy.Eager = expected
      && run (Purge_policy.Lazy 5) = expected
      && run Purge_policy.Never = expected)

let prop_policies_preserve_results =
  QCheck2.Test.make ~name:"purge policies never change results" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let q = fig5_query () in
      let trace =
        Workload.Synth.random_trace q ~elements_per_stream:25 ~value_range:5
          ~punct_prob:0.8 ~seed
      in
      let run policy =
        let c = Executor.compile ~config:(Executor.Config.make ~policy ()) q (Plan.mjoin [ "S1"; "S2"; "S3" ]) in
        count_data (Executor.run c (List.to_seq trace)).Executor.outputs
      in
      let expected = Workload.Synth.brute_force_results q trace in
      run Purge_policy.Never = expected
      && run Purge_policy.Eager = expected
      && run (Purge_policy.Lazy 7) = expected)

(* ------------------------------------------------------------------ *)
(* Groupby / project *)

let test_groupby_blocks_until_punctuation () =
  let op =
    Groupby.create ~input:s2 ~group_by:[ "B" ] ~aggregate:(Groupby.Sum "C") ()
  in
  check_int "no output yet" 0
    (List.length (op.Engine.Operator.push [| Element.Data (tuple s2 [ 1; 10 ]) |]));
  check_int "accumulating" 0
    (List.length (op.Engine.Operator.push [| Element.Data (tuple s2 [ 1; 5 ]) |]));
  let out = op.Engine.Operator.push [| Element.Punct (punct s2 [ ("B", 1) ]) |] in
  (match List.filter Element.is_data out with
  | [ Element.Data t ] ->
      check_bool "sum emitted" true (Tuple.get_named t "agg" = Value.Int 15)
  | _ -> Alcotest.fail "expected one group");
  check_int "group state dropped" 0 (op.Engine.Operator.state ()).data;
  check_int "punct forwarded" 1 (List.length (List.filter Element.is_punct out))

let test_groupby_count_min_max () =
  let feed aggregate =
    let op = Groupby.create ~input:s2 ~group_by:[ "B" ] ~aggregate () in
    ignore (op.Engine.Operator.push [| Element.Data (tuple s2 [ 1; 10 ]) |]);
    ignore (op.Engine.Operator.push [| Element.Data (tuple s2 [ 1; 4 ]) |]);
    match
      List.filter Element.is_data
        (op.Engine.Operator.push [| Element.Punct (punct s2 [ ("B", 1) ]) |])
    with
    | [ Element.Data t ] -> Tuple.get_named t "agg"
    | _ -> Alcotest.fail "expected one group"
  in
  check_bool "count" true (feed Groupby.Count = Value.Int 2);
  check_bool "min" true (feed (Groupby.Min "C") = Value.Int 4);
  check_bool "max" true (feed (Groupby.Max "C") = Value.Int 10)

let test_groupby_punct_covers_only_its_groups () =
  let op = Groupby.create ~input:s2 ~group_by:[ "B" ] ~aggregate:Groupby.Count () in
  ignore (op.Engine.Operator.push [| Element.Data (tuple s2 [ 1; 10 ]) |]);
  ignore (op.Engine.Operator.push [| Element.Data (tuple s2 [ 2; 10 ]) |]);
  let out = op.Engine.Operator.push [| Element.Punct (punct s2 [ ("B", 1) ]) |] in
  check_int "one group emitted" 1 (List.length (List.filter Element.is_data out));
  check_int "one group left" 1 (op.Engine.Operator.state ()).data

let test_groupby_rejects_non_numeric () =
  Alcotest.check_raises "non-numeric"
    (Invalid_argument "Groupby.create: attribute name is not numeric")
    (fun () ->
      ignore
        (Groupby.create ~input:Workload.Auction.item_schema
           ~group_by:[ "itemid" ] ~aggregate:(Groupby.Sum "name") ()))

let test_project_tuples_and_puncts () =
  let op = Project.create ~input:s2 ~keep:[ "C" ] () in
  (match op.Engine.Operator.push [| Element.Data (tuple s2 [ 1; 10 ]) |] with
  | [ Element.Data t ] -> check_int "narrowed" 1 (Tuple.arity t)
  | _ -> Alcotest.fail "expected tuple");
  check_int "punct on kept attr survives" 1
    (List.length (op.Engine.Operator.push [| Element.Punct (punct s2 [ ("C", 10) ]) |]));
  check_int "punct on dropped attr vanishes" 0
    (List.length (op.Engine.Operator.push [| Element.Punct (punct s2 [ ("B", 1) ]) |]))

(* ------------------------------------------------------------------ *)
(* Executor *)

let chain4 () = Workload.Synth.chain_query ~n:4 ()

let test_executor_tree_equals_mjoin_results () =
  let q = chain4 () in
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 25 }
  in
  let run plan =
    let c = Executor.compile q plan in
    count_data (Executor.run c (List.to_seq trace)).Executor.outputs
  in
  let flat = run (Plan.mjoin (Cjq.stream_names q)) in
  check_int "flat count" 25 flat;
  check_int "left-deep agrees" flat (run (Plan.left_deep (Cjq.stream_names q)));
  check_int "bushy agrees" flat
    (run
       (Plan.join
          [
            Plan.join [ Plan.Leaf "S1"; Plan.Leaf "S2" ];
            Plan.join [ Plan.Leaf "S3"; Plan.Leaf "S4" ];
          ]))

let test_executor_tree_state_bounded () =
  let q = chain4 () in
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 120 }
  in
  let c =
    Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q
      (Plan.left_deep (Cjq.stream_names q))
  in
  let r = Executor.run ~sample_every:20 c (List.to_seq trace) in
  check_bool "slope flat" true (Metrics.growth_slope r.Engine.Executor.metrics < 0.05);
  check_bool "peak small" true (Metrics.peak_data_state r.Engine.Executor.metrics < 60)

let test_executor_derived_schemes () =
  let q = chain4 () in
  let c = Executor.compile q (Plan.left_deep (Cjq.stream_names q)) in
  check_bool "derived schemes exist" true (Executor.derived_schemes c <> [])

let test_executor_ignores_foreign_streams () =
  let q = binary_query () in
  let c = Executor.compile q (Plan.mjoin [ "S1"; "S2" ]) in
  let r = Executor.run c (List.to_seq [ Element.Data (tuple s3 [ 1; 2 ]) ]) in
  check_int "consumed but ignored" 1 r.Engine.Executor.consumed;
  check_int "no outputs" 0 (List.length r.Engine.Executor.outputs)

let test_executor_unsafe_stream_grows () =
  let schemes =
    Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ]; Scheme.of_attrs s2 [ "C" ] ]
  in
  let q = triangle_query schemes in
  check_bool "unsafe" false (Core.Checker.is_safe q);
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 150 }
  in
  let c =
    Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q (Plan.mjoin [ "S1"; "S2"; "S3" ])
  in
  let r = Executor.run ~sample_every:30 c (List.to_seq trace) in
  check_bool "state grows" true (Metrics.growth_slope r.Engine.Executor.metrics > 0.05)

(* ------------------------------------------------------------------ *)
(* Dynamic safety: witness, lifespans, partner purging *)

let test_witness_dynamic_unpurgeability () =
  let schemes =
    Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ]; Scheme.of_attrs s2 [ "B" ] ]
  in
  let q = triangle_query schemes in
  let w = Option.get (Core.Witness.build q ~root:"S1") in
  let c =
    Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q (Plan.mjoin [ "S1"; "S2"; "S3" ])
  in
  let r = Executor.run c (List.to_seq (Core.Witness.trace w ~rounds:6)) in
  check_bool "revivals keep producing" true (count_data r.Engine.Executor.outputs >= 6);
  check_bool "state retained" true (Executor.total_data_state c > 0)

let test_punct_lifespan_bounds_store () =
  let q = fig5_query () in
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 100 }
  in
  let run lifespan =
    let c =
      Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ?punct_lifespan:lifespan ()) q
        (Plan.mjoin [ "S1"; "S2"; "S3" ])
    in
    let r = Executor.run c (List.to_seq trace) in
    Metrics.peak_punct_state r.Engine.Executor.metrics
  in
  check_bool "lifespan shrinks punctuation store" true
    (run (Some { Core.Punct_purge.ttl = 30 }) < run None)

let test_punct_partner_purge_bounds_store () =
  let q = fig5_query () in
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds = 100 }
  in
  let run partner =
    let c =
      Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ~punct_partner_purge:partner ())
        q (Plan.mjoin [ "S1"; "S2"; "S3" ])
    in
    let r = Executor.run c (List.to_seq trace) in
    Metrics.peak_punct_state r.Engine.Executor.metrics
  in
  check_bool "partner purging does not hurt" true (run true <= run false)

(* Random multiway queries and traces: the full executor (random safe or
   unsafe query, random plan shape irrelevant — single MJoin) must agree
   with the nested-loop oracle. *)
let prop_multiway_equals_brute_force =
  QCheck2.Test.make ~name:"multiway MJoin = brute force on random queries"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 2 4))
    (fun (seed, n_streams) ->
      let q =
        Workload.Synth.random_query
          {
            Workload.Synth.n_streams;
            extra_edges = 1;
            attrs_per_stream = 2;
            single_scheme_prob = 0.7;
            multi_scheme_prob = 0.2;
            ordered_scheme_prob = 0.0;
            seed;
          }
      in
      let trace =
        Workload.Synth.random_trace q ~elements_per_stream:12 ~value_range:3
          ~punct_prob:0.6 ~seed:(seed + 1)
      in
      let c =
        Executor.compile ~config:(Executor.Config.make ~policy:Purge_policy.Eager ()) q
          (Plan.mjoin (Cjq.stream_names q))
      in
      let r = Executor.run c (List.to_seq trace) in
      count_data r.Executor.outputs = Workload.Synth.brute_force_results q trace)

let prop_parser_round_trip_random =
  QCheck2.Test.make ~name:"parser round-trips random queries" ~count:150
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let q =
        Workload.Synth.random_query
          {
            Workload.Synth.default_query_config with
            seed;
            ordered_scheme_prob = 0.3;
          }
      in
      let q2 = Query.Parser.parse (Query.Parser.to_text q) in
      Cjq.stream_names q = Cjq.stream_names q2
      && Cjq.predicates q = Cjq.predicates q2
      && List.for_all2
           (fun a b ->
             List.for_all2 Scheme.equal
               (Streams.Stream_def.schemes a)
               (Streams.Stream_def.schemes b))
           (Cjq.stream_defs q) (Cjq.stream_defs q2)
      && Core.Checker.is_safe q = Core.Checker.is_safe q2)

let prop_trace_io_round_trip_random =
  QCheck2.Test.make ~name:"trace serialization round-trips" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let q =
        Workload.Synth.random_query
          { Workload.Synth.default_query_config with seed }
      in
      let trace =
        Workload.Synth.random_trace q ~elements_per_stream:15 ~value_range:5
          ~punct_prob:0.5 ~seed
      in
      Streams.Trace_io.of_string
        ~defs:(Cjq.stream_defs q)
        (Streams.Trace_io.to_string trace)
      = trace)

(* Model-based check of the punctuation store: after any mix of constant
   and watermark insertions, [covers] must agree with scanning a naive list
   of every inserted punctuation — subsumption-based eviction must never
   change the answer. *)
let prop_punct_store_covers_model =
  QCheck2.Test.make ~name:"Punct_store.covers = naive model" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 15)
           (triple bool (int_range 0 4) (int_range 0 4)))
        (list_size (int_range 0 10) (pair (int_range 0 4) (int_range 0 4))))
    (fun (inserts, queries) ->
      let store = Punct_store.create s1 in
      let model = ref [] in
      List.iteri
        (fun i (ordered, a, b) ->
          let p =
            if ordered then Punctuation.watermark s1 "B" (Value.Int b)
            else
              Punctuation.of_bindings s1
                (if a mod 2 = 0 then [ ("B", Value.Int b) ]
                 else [ ("A", Value.Int a); ("B", Value.Int b) ])
          in
          ignore (Punct_store.insert store ~now:i p);
          model := p :: !model)
        inserts;
      List.for_all
        (fun (a, b) ->
          let bindings = [ (0, Value.Int a); (1, Value.Int b) ] in
          Punct_store.covers store bindings
          = List.exists (fun p -> Punctuation.covers p bindings) !model)
        queries)

(* The progress frontier is maintained incrementally: after any mix of
   inserts, expiry, purges and snapshot round-trips it must equal a fold
   over the stored punctuations (constant v covers tick v, watermark
   [< v] covers v - 1, the furthest constraint counts). *)
let prop_punct_store_progress_model =
  QCheck2.Test.make ~name:"Punct_store.progress = fold over to_list"
    ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (pair (int_range 0 5) (triple (int_range 0 9) (int_range 0 9) bool)))
    (fun ops ->
      let store = ref (Punct_store.create s1) in
      let reference () =
        List.fold_left
          (fun acc p ->
            let ticks =
              List.filter_map
                (function
                  | _, Punctuation.Const (Value.Int v) -> Some v
                  | _, Punctuation.Less_than (Value.Int v) -> Some (v - 1)
                  | _ -> None)
                (Punctuation.constraints p)
            in
            match ticks, acc with
            | [], _ -> acc
            | _, None ->
                let v = List.fold_left max min_int ticks in
                Some (v, v)
            | _, Some (lo, hi) ->
                let v = List.fold_left max min_int ticks in
                Some (min lo v, max hi v))
          None (Punct_store.to_list !store)
      in
      let now = ref 0 in
      List.for_all
        (fun (op, (a, b, flag)) ->
          incr now;
          (match op with
          | 0 | 1 ->
              let p =
                if flag then Punctuation.watermark s1 "B" (Value.Int b)
                else if op = 0 then punct s1 [ ("B", b) ]
                else punct s1 [ ("A", a); ("B", b) ]
              in
              ignore (Punct_store.insert !store ~now:!now p)
          | 2 -> ignore (Punct_store.insert !store ~now:!now (punct s1 [ ("A", a) ]))
          | 3 ->
              ignore
                (Punct_store.expire !store ~now:!now
                   { Core.Punct_purge.ttl = a + 1 })
          | 4 ->
              ignore
                (Punct_store.purge_if !store (fun p ->
                     Punctuation.matches p (tuple s1 [ a; b ])))
          | _ ->
              let buf = Buffer.create 256 in
              Punct_store.write_snapshot buf !store;
              let fresh = Punct_store.create s1 in
              Punct_store.read_snapshot fresh
                (Streams.Wire.R.of_string (Buffer.contents buf));
              store := fresh);
          Punct_store.progress !store = reference ())
        ops)

(* Differential check of Mjoin's candidate purge rounds. Random queries
   and punctuation-complete traces (with delayed punctuations and late
   tuples) go through the operator one element at a time; after every push
   that ran a round, each input's victims in that push's [Purge] events must
   equal what a full rescan finds: every input kept as a finite relation,
   every tuple re-decided by [Chained_purge.tuple_purgeable], slot by slot,
   each slot seeing the purges of the slots before it. Under [Eager] an
   arriving tuple the same test already frees is a victim of its own push
   and never joins its relation (dead on arrival). *)
let prop_incremental_purge_matches_full_scan =
  QCheck2.Test.make ~name:"incremental purge = full-scan reference" ~count:200
    ~print:(fun (seed, shape, lazy_) ->
      Printf.sprintf "seed=%d query=%s policy=%s" seed
        (match shape with
        | 0 | 1 -> "random_query"
        | 2 -> "cycle_query"
        | _ -> "chain_query")
        (if lazy_ then "lazy:3" else "eager"))
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 0 3) bool)
    (fun (seed, shape, lazy_) ->
      let n = 2 + (seed mod 3) in
      let q =
        match shape with
        | 0 | 1 ->
            Workload.Synth.random_query
              {
                Workload.Synth.n_streams = n;
                extra_edges = seed mod 2;
                attrs_per_stream = 2;
                single_scheme_prob = 0.7;
                multi_scheme_prob = 0.4;
                ordered_scheme_prob = 0.3;
                seed;
              }
        | 2 -> Workload.Synth.cycle_query ~n:(max 3 n) ()
        | _ -> Workload.Synth.chain_query ~n ()
      in
      let trace =
        Workload.Synth.round_trace q
          {
            Workload.Synth.rounds = 6 + (seed mod 7);
            tuples_per_round = 1 + (seed mod 3);
            punct_lag = seed mod 4;
            trace_seed = seed;
          }
      in
      let trace, _ =
        Streams.Fault_injector.apply
          {
            Streams.Fault_injector.default with
            seed;
            delay_punct = 0.2;
            delay_ticks = 4;
            late_data = 0.2;
          }
          trace
      in
      let inputs =
        List.map
          (fun d ->
            {
              Mjoin.name = Streams.Stream_def.name d;
              schema = Streams.Stream_def.schema d;
              schemes = Streams.Stream_def.schemes d;
            })
          (Cjq.stream_defs q)
      in
      let predicates = Cjq.predicates q in
      let events = ref [] in
      let telemetry =
        Engine.Telemetry.create
          ~sink:{ Obs.Sink.emit = (fun e -> events := e :: !events); close = ignore }
          ()
      in
      let op =
        Mjoin.create ~telemetry
          ~policy:(if lazy_ then Purge_policy.Lazy 3 else Purge_policy.Eager)
          ~inputs ~predicates ()
      in
      (* the reference *)
      let plans = Mjoin.purge_plans ~inputs ~predicates in
      let rels = Hashtbl.create 8 and stores = Hashtbl.create 8 in
      List.iter
        (fun (i : Mjoin.input) ->
          Hashtbl.replace rels i.name (Relation.empty i.schema);
          Hashtbl.replace stores i.name [])
        inputs;
      let covered ~stream bindings =
        List.exists
          (fun p -> Punctuation.covers p bindings)
          (Hashtbl.find stores stream)
      in
      let join_key_null tup =
        let name = Schema.stream_name (Tuple.schema tup) in
        List.exists
          (fun atom ->
            Predicate.involves atom name
            && Value.is_null (Tuple.get_named tup (Predicate.attr_on atom name)))
          predicates
      in
      let purgeable plan t =
        Core.Chained_purge.tuple_purgeable plan
          ~joinable:(Core.Chained_purge.joinable_in (Hashtbl.find rels))
          ~covered ~root_tuple:t
      in
      let full_scan () =
        List.filter_map
          (fun (name, plan) ->
            match plan with
            | None -> None
            | Some plan ->
                let rel = Hashtbl.find rels name in
                let dead, keep = List.partition (purgeable plan) (Relation.tuples rel) in
                Hashtbl.replace rels name (Relation.make (Relation.schema rel) keep);
                if dead = [] then None else Some (name, List.length dead))
          plans
      in
      let purged evs =
        List.filter_map
          (function
            | Obs.Event.Purge { input; victims; trigger; _ } when trigger <> "null_key" ->
                Some (input, victims)
            | _ -> None)
          evs
        |> List.sort compare
      in
      let ran_round evs =
        List.exists (function Obs.Event.Purge_round _ -> true | _ -> false) evs
      in
      let live () =
        Hashtbl.fold (fun _ r acc -> acc + Relation.cardinality r) rels 0
      in
      let step push apply =
        events := [];
        push ();
        let evs = List.rev !events in
        let want = apply (ran_round evs) in
        purged evs = List.sort compare want && (op.Engine.Operator.state ()).data = live ()
      in
      List.for_all
        (fun e ->
          step
            (fun () -> ignore (op.Engine.Operator.push [| e |]))
            (fun round ->
              match e with
              | Element.Data tup ->
                  let want = if round then full_scan () else [] in
                  let name = Schema.stream_name (Tuple.schema tup) in
                  if join_key_null tup then want
                  else if
                    (not lazy_)
                    && Option.fold ~none:false
                         ~some:(fun plan -> purgeable plan tup)
                         (List.assoc name plans)
                  then (name, 1) :: want
                  else begin
                    Hashtbl.replace rels name (Relation.add (Hashtbl.find rels name) tup);
                    want
                  end
              | Element.Punct p ->
                  let name = Schema.stream_name (Punctuation.schema p) in
                  Hashtbl.replace stores name (p :: Hashtbl.find stores name);
                  if round then full_scan () else []))
        trace
      && step (fun () -> ignore (op.Engine.Operator.flush ())) (fun _ -> full_scan ())
      (* dead-on-arrival drops count as purged: tuples are conserved *)
      &&
      let s = op.Engine.Operator.stats () in
      s.Engine.Operator.tuples_in
      = (op.Engine.Operator.state ()).data + s.Engine.Operator.tuples_purged)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_punct_store_covers_model;
      prop_incremental_purge_matches_full_scan;
      prop_punct_store_progress_model;
      prop_pjoin_equals_mjoin;
      prop_policies_preserve_results;
      prop_multiway_equals_brute_force;
      prop_parser_round_trip_random;
      prop_trace_io_round_trip_random;
    ]

let () =
  Alcotest.run "engine"
    [
      ( "join_state",
        [
          Alcotest.test_case "insert/size" `Quick test_join_state_insert_size;
          Alcotest.test_case "probe" `Quick (on_every_key_type test_join_state_probe);
          Alcotest.test_case "purge" `Quick test_join_state_purge;
          Alcotest.test_case "ids/matching" `Quick test_join_state_ids_and_matching;
          Alcotest.test_case "schema mismatch" `Quick test_join_state_schema_mismatch;
          Alcotest.test_case "purge cleans indexes" `Quick
            (on_every_key_type test_join_state_purge_cleans_indexes);
          Alcotest.test_case "evict cleans indexes" `Quick
            (on_every_key_type test_join_state_evict_cleans_indexes);
          Alcotest.test_case "probe after purge" `Quick
            (on_every_key_type test_join_state_probe_after_purge_no_empty_buckets);
          Alcotest.test_case "mem stats bounded" `Quick
            (on_every_key_type test_join_state_mem_stats_bounded_under_unique_keys);
        ] );
      ( "punct_store",
        [
          Alcotest.test_case "insert/covers" `Quick test_punct_store_insert_covers;
          Alcotest.test_case "subsumption" `Quick test_punct_store_subsumption;
          Alcotest.test_case "duplicates" `Quick test_punct_store_duplicate;
          Alcotest.test_case "forbids" `Quick test_punct_store_forbids;
          Alcotest.test_case "expiry" `Quick test_punct_store_expire;
          Alcotest.test_case "forwarded flag" `Quick test_punct_store_forwarded_flag;
          Alcotest.test_case "purge symmetry" `Quick test_punct_store_purge_symmetry;
          Alcotest.test_case "expire clears pending" `Quick
            test_punct_store_expire_clears_pending;
          Alcotest.test_case "snapshot keeps subsumed pending" `Quick
            test_punct_store_snapshot_subsumed_pending;
        ] );
      ( "policy/metrics",
        [
          Alcotest.test_case "policy due" `Quick test_purge_policy_due;
          Alcotest.test_case "metrics slope" `Quick test_metrics_series_and_slope;
          Alcotest.test_case "metrics flush contract" `Quick
            test_metrics_flush_contract;
          Alcotest.test_case "grid feed cuts at the grid" `Quick
            test_grid_feed_cuts_at_the_grid;
        ] );
      ( "binary join",
        [
          Alcotest.test_case "matches" `Quick test_binary_join_matches;
          Alcotest.test_case "direct purge" `Quick test_binary_join_purges_opposite;
          Alcotest.test_case "no lost results" `Quick test_binary_join_never_loses_results;
          Alcotest.test_case "dead on arrival" `Quick test_binary_join_drops_dead_on_arrival;
          Alcotest.test_case "propagation" `Quick test_binary_join_propagates_drained_punct;
          Alcotest.test_case "propagation waits for drain" `Quick
            test_binary_join_delays_punct_until_drained;
        ] );
      ( "mjoin",
        [
          Alcotest.test_case "3-way match" `Quick test_mjoin_three_way_match;
          Alcotest.test_case "all predicates" `Quick test_mjoin_respects_all_predicates;
          Alcotest.test_case "purge plans" `Quick test_mjoin_purge_plans;
          Alcotest.test_case "chained purge at runtime" `Quick test_mjoin_chained_purge_runtime;
          Alcotest.test_case "policies agree on results" `Quick
            test_mjoin_policies_agree_on_results;
          Alcotest.test_case "adaptive caps state" `Quick test_adaptive_policy_caps_state;
          Alcotest.test_case "unknown input" `Quick test_mjoin_unknown_input_rejected;
        ] );
      ( "groupby/project",
        [
          Alcotest.test_case "unblocking" `Quick test_groupby_blocks_until_punctuation;
          Alcotest.test_case "aggregates" `Quick test_groupby_count_min_max;
          Alcotest.test_case "selective emission" `Quick test_groupby_punct_covers_only_its_groups;
          Alcotest.test_case "non-numeric rejected" `Quick test_groupby_rejects_non_numeric;
          Alcotest.test_case "project" `Quick test_project_tuples_and_puncts;
        ] );
      ( "executor",
        [
          Alcotest.test_case "tree = mjoin results" `Quick test_executor_tree_equals_mjoin_results;
          Alcotest.test_case "tree state bounded" `Quick test_executor_tree_state_bounded;
          Alcotest.test_case "derived schemes" `Quick test_executor_derived_schemes;
          Alcotest.test_case "foreign streams ignored" `Quick test_executor_ignores_foreign_streams;
          Alcotest.test_case "unsafe grows" `Quick test_executor_unsafe_stream_grows;
        ] );
      ( "dynamic safety",
        [
          Alcotest.test_case "witness unpurgeability" `Quick test_witness_dynamic_unpurgeability;
          Alcotest.test_case "punct lifespan" `Quick test_punct_lifespan_bounds_store;
          Alcotest.test_case "partner punct purge" `Quick test_punct_partner_purge_bounds_store;
        ] );
      ("properties", props);
    ]
