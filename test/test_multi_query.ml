(* Multi-query shared execution: the registry's canonicalizer, the
   intersection shareability check, the greedy shared planner, and the
   correctness spine — every query of a shared run answers byte-for-byte
   what its independent run answers, sequentially and sharded. *)

open Relational
module Element = Streams.Element
module Scheme = Streams.Scheme
module Stream_def = Streams.Stream_def
module Cjq = Query.Cjq
module Plan = Query.Plan
module Query_registry = Query.Query_registry
module Checker = Core.Checker
module Planner = Core.Planner
module Executor = Engine.Executor
module Multi_executor = Engine.Multi_executor
module Parallel_executor = Engine.Parallel_executor
module Fault_injector = Streams.Fault_injector
module Shard_router = Engine.Shard_router
module Purge_policy = Engine.Purge_policy
module Telemetry = Engine.Telemetry
module Synth = Workload.Synth
open Fixtures

(* ------------------------------------------------------------------ *)
(* The star family: R, S, T, U all carry a key K; Q1 = R ⋈ S ⋈ T and
   Q2 = R ⋈ S ⋈ U overlap on the sub-join {R, S}. [punct] controls which
   streams declare the single-attribute scheme (K). *)

let kdef ?(punct = true) name extra =
  let schema = int_schema name ("K" :: extra) in
  Stream_def.make schema
    (if punct then [ Scheme.of_attrs schema [ "K" ] ] else [])

let star_q1 ?(s_punct = true) () =
  Cjq.make
    [ kdef "R" [ "A" ]; kdef ~punct:s_punct "S" [ "B" ]; kdef "T" [ "C" ] ]
    [ Predicate.atom "R" "K" "S" "K"; Predicate.atom "S" "K" "T" "K" ]

let star_q2 ?(s_punct = true) () =
  Cjq.make
    [ kdef "R" [ "A" ]; kdef ~punct:s_punct "S" [ "B" ]; kdef "U" [ "D" ] ]
    [ Predicate.atom "R" "K" "S" "K"; Predicate.atom "S" "K" "U" "K" ]

let star_registry () =
  Query_registry.create
    [
      { Query_registry.qid = "q1"; query = star_q1 () };
      { Query_registry.qid = "q2"; query = star_q2 () };
    ]

(* Two identical triangles — the full query is the shared block, both
   subscribers fully covered. *)
let twin_registry () =
  Query_registry.create
    [
      { Query_registry.qid = "left"; query = fig8_query () };
      { Query_registry.qid = "right"; query = fig8_query () };
    ]

(* ------------------------------------------------------------------ *)
(* Registry / canonicalizer *)

let test_registry_validates () =
  let q = star_q1 () in
  Alcotest.check_raises "duplicate qid" (Invalid_argument "Query_registry.create: duplicate qid \"a\"")
    (fun () ->
      ignore
        (Query_registry.create
           [
             { Query_registry.qid = "a"; query = q };
             { Query_registry.qid = "a"; query = q };
           ]))

let test_canonical_key_renaming () =
  (* Same coordinates, different attribute names: R'(J, X) ⋈ S'(J, Y) on J
     canonicalizes like R(K, A) ⋈ S(K, B) on K. *)
  let q = star_q1 () in
  let r' = int_schema "R" [ "J"; "X" ] and s' = int_schema "S" [ "J"; "Y" ] in
  let q' =
    Cjq.make
      [
        Stream_def.make r' [ Scheme.of_attrs r' [ "J" ] ];
        Stream_def.make s' [ Scheme.of_attrs s' [ "J" ] ];
      ]
      [ Predicate.atom "R" "J" "S" "J" ]
  in
  let key names q = Option.get (Query_registry.canonical_key q names) in
  check_string "renaming-invariant key" (key [ "R"; "S" ] q)
    (key [ "R"; "S" ] q');
  (* ... but a literally different alphabet is not fusable. *)
  let reg =
    Query_registry.create
      [
        { Query_registry.qid = "orig"; query = star_q1 () };
        { Query_registry.qid = "renamed"; query = q' };
      ]
  in
  match Query_registry.shared_candidates reg with
  | [ c ] ->
      check_bool "equivalent modulo renaming" true
        (List.map fst c.Query_registry.members = [ "orig"; "renamed" ]);
      check_bool "not fusable" false c.Query_registry.fusable
  | cs -> Alcotest.failf "expected 1 candidate, got %d" (List.length cs)

let test_shared_candidates_star () =
  match Query_registry.shared_candidates (star_registry ()) with
  | [ c ] ->
      check_bool "streams {R,S}" true (c.Query_registry.streams = [ "R"; "S" ]);
      check_bool "fusable" true c.Query_registry.fusable;
      check_bool "members q1 q2" true
        (List.map fst c.Query_registry.members = [ "q1"; "q2" ])
  | cs -> Alcotest.failf "expected 1 candidate, got %d" (List.length cs)

(* ------------------------------------------------------------------ *)
(* Shareability under the scheme-set intersection *)

let test_shareable_accepts_star () =
  let r =
    Checker.shareable
      ~members:[ ("q1", star_q1 ()); ("q2", star_q2 ()) ]
      ~streams:[ "R"; "S" ]
  in
  check_bool "sub-block purgeable" true r.Checker.sub_purgeable;
  check_bool "both admitted" true (r.Checker.shareable_for = [ "q1"; "q2" ])

(* Satellite: each query safe alone, the intersection not. Table-driven
   over the ways sharing can lose purge reachability. *)
let test_shareable_rejects_intersection () =
  (* (a) Disjoint scheme cycles: fig5's directed cycle S1:(B), S2:(C),
     S3:(A) vs the reverse rotation S1:(A), S2:(B), S3:(C). Both safe as
     one MJoin; the shared triangle's intersection is empty. *)
  let reverse_schemes =
    Scheme.Set.of_list
      [
        Scheme.of_attrs s1 [ "A" ];
        Scheme.of_attrs s2 [ "B" ];
        Scheme.of_attrs s3 [ "C" ];
      ]
  in
  (* (b) Partial overlap of the paper's two safe triangle families: the
     fig5 cycle and the fig8 set intersect in {S1:(B), S2:(C)} only — S3
     contributes nothing to the shared block, whose purge cycle is broken
     even though each family is safe on its own. *)
  let cases =
    [
      ( "disjoint cycles",
        triangle_query fig5_schemes,
        triangle_query reverse_schemes,
        [ "S1"; "S2"; "S3" ] );
      ( "partial scheme overlap",
        triangle_query fig5_schemes,
        triangle_query fig8_schemes,
        [ "S1"; "S2"; "S3" ] );
    ]
  in
  List.iter
    (fun (label, qa, qb, streams) ->
      check_bool (label ^ ": A safe alone") true (Checker.is_safe qa);
      check_bool (label ^ ": B safe alone") true (Checker.is_safe qb);
      let r = Checker.shareable ~members:[ ("a", qa); ("b", qb) ] ~streams in
      check_bool (label ^ ": sub-block not purgeable") false
        r.Checker.sub_purgeable;
      check_bool (label ^ ": sharing rejected") true
        (r.Checker.shareable_for = []))
    cases

(* ------------------------------------------------------------------ *)
(* Planner *)

let assignment_of plan qid = List.assoc qid plan.Planner.assignments

let test_plan_shared_star () =
  let plan = Planner.plan_shared (star_registry ()) in
  (match plan.Planner.groups with
  | [ g ] ->
      check_string "gid" "G1" g.Planner.gid;
      check_bool "streams {R,S}" true (g.Planner.streams = [ "R"; "S" ])
  | gs -> Alcotest.failf "expected 1 group, got %d" (List.length gs));
  (match assignment_of plan "q1" with
  | Planner.Shared { gid = "G1"; rest = [ "T" ] } -> ()
  | _ -> Alcotest.fail "q1 not folded onto G1 with residual T");
  match assignment_of plan "q2" with
  | Planner.Shared { gid = "G1"; rest = [ "U" ] } -> ()
  | _ -> Alcotest.fail "q2 not folded onto G1 with residual U"

let test_plan_shared_disabled_and_fallback () =
  let independent plan qid =
    match assignment_of plan qid with
    | Planner.Independent _ -> true
    | Planner.Shared _ -> false
  in
  let off = Planner.plan_shared ~share:false (star_registry ()) in
  check_bool "share:false has no groups" true (off.Planner.groups = []);
  check_bool "share:false all independent" true
    (List.for_all (independent off) [ "q1"; "q2" ]);
  (* Intersection-unsafe sharing falls back to independent plans. *)
  let reg =
    Query_registry.create
      [
        { Query_registry.qid = "q1"; query = star_q1 () };
        { Query_registry.qid = "q2"; query = star_q2 ~s_punct:false () };
      ]
  in
  let plan = Planner.plan_shared reg in
  check_bool "unsafe sharing: no groups" true (plan.Planner.groups = []);
  check_bool "unsafe sharing: all independent" true
    (List.for_all (independent plan) [ "q1"; "q2" ])

let test_plan_shared_twin_full_cover () =
  let plan = Planner.plan_shared (twin_registry ()) in
  (match plan.Planner.groups with
  | [ g ] ->
      check_bool "whole triangle shared" true
        (g.Planner.streams = [ "S1"; "S2"; "S3" ])
  | gs -> Alcotest.failf "expected 1 group, got %d" (List.length gs));
  List.iter
    (fun qid ->
      match assignment_of plan qid with
      | Planner.Shared { rest = []; _ } -> ()
      | _ -> Alcotest.fail (qid ^ " not fully covered"))
    [ "left"; "right" ]

(* ------------------------------------------------------------------ *)
(* Execution equivalence: shared ≡ independent ≡ solo, per query *)

let trace_config =
  { Synth.rounds = 10; tuples_per_round = 3; punct_lag = 2; trace_seed = 11 }

let union_defs reg =
  Cjq.union_defs
    (List.map
       (fun (e : Query_registry.entry) -> e.Query_registry.query)
       (Query_registry.entries reg))

(* The per-query reference: compile the query alone and feed it only its
   own streams. *)
let solo_hash config query trace =
  let own = Cjq.stream_names query in
  let trace =
    List.filter (fun e -> List.mem (Element.stream_name e) own) trace
  in
  let c = Executor.compile ~config query (Plan.mjoin own) in
  let r = Executor.run c (List.to_seq trace) in
  (Executor.output_hash r.Executor.outputs, r.Executor.emitted)

let multi_hashes config ~share reg trace =
  let m = Multi_executor.create ~config ~share reg in
  let r = Multi_executor.run m (List.to_seq trace) in
  List.map
    (fun (qid, (qr : Multi_executor.query_result)) ->
      (qid, (qr.Multi_executor.hash, qr.Multi_executor.emitted)))
    r.Multi_executor.per_query

let check_equivalence ~label reg trace =
  List.iter
    (fun policy ->
      let config = Executor.Config.make ~policy () in
      let shared = multi_hashes config ~share:true reg trace in
      let indep = multi_hashes config ~share:false reg trace in
      List.iter
        (fun (e : Query_registry.entry) ->
          let qid = e.Query_registry.qid in
          let solo = solo_hash config e.Query_registry.query trace in
          let name mode = Printf.sprintf "%s/%s %s" label qid mode in
          check_bool (name "shared = solo") true
            (List.assoc qid shared = solo);
          check_bool (name "independent = solo") true
            (List.assoc qid indep = solo))
        (Query_registry.entries reg);
      List.iter
        (fun shards ->
          let p = Parallel_executor.create_multi ~config ~shards reg in
          let r = Parallel_executor.run p (List.to_seq trace) in
          List.iter
            (fun (qid, outputs) ->
              let a = Multi_executor.answer outputs in
              check_bool
                (Printf.sprintf "%s/%s sharded %d = sequential" label qid
                   shards)
                true
                (List.assoc qid shared
                = (a.Multi_executor.hash, a.Multi_executor.emitted)))
            r.Parallel_executor.per_query)
        [ 1; 2; 4 ])
    [ Purge_policy.Eager; Purge_policy.Lazy 25 ]

let test_equivalence_star_round () =
  let reg = star_registry () in
  let trace = Synth.round_trace_defs (union_defs reg) trace_config in
  check_equivalence ~label:"star-round" reg trace;
  (* Round traces have a known answer: one result per key per query. *)
  let m = Multi_executor.create reg in
  let r = Multi_executor.run m (List.to_seq trace) in
  List.iter
    (fun (qid, (qr : Multi_executor.query_result)) ->
      check_int (qid ^ " round results")
        (trace_config.Synth.rounds * trace_config.Synth.tuples_per_round)
        qr.Multi_executor.emitted)
    r.Multi_executor.per_query

let test_equivalence_star_random () =
  (* Arbitrary-selectivity input over the union of both queries' streams:
     generated from the union query, whose star atom set spans all four
     streams. The router is exact here, so sharded runs must agree on
     random (not key-aligned) inputs too. *)
  let union_query =
    Cjq.make
      [ kdef "R" [ "A" ]; kdef "S" [ "B" ]; kdef "T" [ "C" ]; kdef "U" [ "D" ] ]
      [
        Predicate.atom "R" "K" "S" "K";
        Predicate.atom "S" "K" "T" "K";
        Predicate.atom "S" "K" "U" "K";
      ]
  in
  List.iter
    (fun seed ->
      let trace =
        Synth.random_trace union_query ~elements_per_stream:120 ~value_range:8
          ~punct_prob:0.5 ~seed
      in
      check_equivalence
        ~label:(Printf.sprintf "star-random-%d" seed)
        (star_registry ()) trace)
    [ 1; 2 ]

let test_equivalence_twin_triangle () =
  let reg = twin_registry () in
  let trace = Synth.round_trace (fig8_query ()) trace_config in
  check_equivalence ~label:"twin" reg trace

(* Data flows through the shared fan-out with no punctuation in sight:
   the R ⋈ S match materializes inside the shared block when S arrives,
   and each subscriber's full result fires the instant its residual
   stream shows up — q1 on T, q2 on U. Flush then adds nothing. *)
let test_shared_fanout_delivers_eagerly () =
  let reg = star_registry () in
  let m = Multi_executor.create reg in
  let data name attrs =
    Element.Data (tuple (int_schema name attrs) (List.map (fun _ -> 7) attrs))
  in
  let emitted_for e =
    List.map
      (fun (qid, outs) ->
        (qid, List.length (List.filter Element.is_data outs)))
      (Multi_executor.feed_batch m [| e |])
  in
  check_bool "R alone: silence" true (emitted_for (data "R" [ "K"; "A" ]) = []);
  check_bool "S alone: sub-join stays internal" true
    (emitted_for (data "S" [ "K"; "B" ]) = []);
  check_bool "T completes q1" true
    (emitted_for (data "T" [ "K"; "C" ]) = [ ("q1", 1) ]);
  check_bool "U completes q2" true
    (emitted_for (data "U" [ "K"; "D" ]) = [ ("q2", 1) ]);
  check_bool "flush adds no data" true
    (List.for_all
       (fun (_, outs) -> not (List.exists Element.is_data outs))
       (Multi_executor.flush m))

(* ------------------------------------------------------------------ *)
(* State accounting: sharing must actually share *)

let test_shared_state_is_lower () =
  let reg = twin_registry () in
  let no_punct_trace =
    List.filter Element.is_data (Synth.round_trace (fig8_query ()) trace_config)
  in
  let fill share =
    let m = Multi_executor.create ~share reg in
    List.iter (fun e -> ignore (Multi_executor.feed_batch m [| e |])) no_punct_trace;
    m
  in
  let shared = fill true and indep = fill false in
  let sb = Multi_executor.total_state_bytes shared
  and ib = Multi_executor.total_state_bytes indep in
  check_bool "shared state strictly lower" true (sb < ib);
  check_bool "roughly halved" true (sb * 3 < ib * 2);
  (* The breakdown attributes shared state to the group, once. *)
  match Multi_executor.state_breakdown shared with
  | [ ("shared:G1", ops) ] ->
      check_bool "shared ops named shared:G1/" true
        (List.for_all
           (fun (name, _) ->
             String.length name > 10 && String.sub name 0 10 = "shared:G1/")
           ops)
  | other ->
      Alcotest.failf "expected only the shared group to hold state, got %d owners"
        (List.length other)

(* ------------------------------------------------------------------ *)
(* Observability: a shared run's report verifies against its trace *)

let test_shared_run_trace_verifies () =
  let reg = star_registry () in
  let trace =
    Synth.round_trace_defs (union_defs reg) trace_config
  in
  let sink, events = Obs.Sink.memory () in
  let telemetry = Telemetry.create ~sink () in
  let m =
    Multi_executor.create ~config:(Executor.Config.make ~telemetry ()) reg
  in
  let r = Multi_executor.run ~sample_every:25 m (List.to_seq trace) in
  let report = Obs.Report.to_json (Multi_executor.report m r) in
  let events = events () in
  check_bool "trace non-trivial" true (List.length events > 50);
  (match Obs.Report.verify ~report ~events with
  | Ok () -> ()
  | Error ps ->
      Alcotest.failf "verify failed:@.%a" Fmt.(list ~sep:cut string) ps);
  (* The exposition splits owner-prefixed operator names into a [query]
     label: per-query rates break out, shared state is scraped once under
     its group's name. *)
  let text =
    Obs.Openmetrics.render ~tick:r.Multi_executor.consumed
      (Telemetry.registry telemetry)
  in
  let samples = Result.get_ok (Obs.Openmetrics.parse text) in
  let has_query v =
    List.exists
      (fun (s : Obs.Openmetrics.sample) ->
        Obs.Openmetrics.label s "query" = Some v)
      samples
  in
  List.iter
    (fun owner -> check_bool ("query label " ^ owner) true (has_query owner))
    [ "shared:G1"; "q1"; "q2" ]

(* The sharded twin: an instrumented multi-query fleet's merged trace
   replays to its own report's counters. *)
let test_sharded_run_trace_verifies () =
  let reg = star_registry () in
  let trace = Synth.round_trace_defs (union_defs reg) trace_config in
  let p = Parallel_executor.create_multi ~instrument:true ~shards:2 reg in
  let r = Parallel_executor.run ~sample_every:25 p (List.to_seq trace) in
  let report = Obs.Report.to_json (Parallel_executor.report p r) in
  let events = List.map snd (Parallel_executor.events p) in
  check_bool "trace non-trivial" true (List.length events > 50);
  match Obs.Report.verify ~report ~events with
  | Ok () -> ()
  | Error ps ->
      Alcotest.failf "verify failed:@.%a" Fmt.(list ~sep:cut string) ps

(* A sharded report answers like the sequential one: the same per-query
   (qid, emitted, hash) entries and the same shared groups. *)
let test_sharded_report_carries_answers () =
  let reg = star_registry () in
  let trace = Synth.round_trace_defs (union_defs reg) trace_config in
  let m = Multi_executor.create reg in
  let seq =
    Multi_executor.report m (Multi_executor.run m (List.to_seq trace))
  in
  let p = Parallel_executor.create_multi ~shards:2 reg in
  let sharded =
    Parallel_executor.report p (Parallel_executor.run p (List.to_seq trace))
  in
  let entry key (r : Obs.Report.t) =
    Option.map Obs.Json.to_string (List.assoc_opt key r.Obs.Report.meta)
  in
  check_bool "sequential report lists both queries" true
    (match List.assoc_opt "queries" seq.Obs.Report.meta with
    | Some (Obs.Json.List qs) -> List.length qs = 2
    | _ -> false);
  List.iter
    (fun key ->
      Alcotest.(check (option string)) key (entry key seq) (entry key sharded))
    [ "queries"; "shared_groups" ]

(* ------------------------------------------------------------------ *)
(* The multi-query fleet *)

(* Three kills on two shards, shard 1 hit twice: supervision replays each
   victim's history and every query still answers what the fault-free
   sequential run answers. *)
let test_sharded_kills_recover () =
  let reg = star_registry () in
  let trace =
    Synth.round_trace_defs (union_defs reg) { trace_config with rounds = 30 }
  in
  let expected = multi_hashes Executor.Config.default ~share:true reg trace in
  let kills =
    [
      { Fault_injector.shard = 1; at_seq = 60 };
      { Fault_injector.shard = 0; at_seq = 200 };
      { Fault_injector.shard = 1; at_seq = 300 };
    ]
  in
  check_bool "trace reaches the last kill" true (List.length trace > 300);
  let p =
    Parallel_executor.create_multi ~kills ~max_restarts:2 ~shards:2 reg
  in
  let r = Parallel_executor.run p (List.to_seq trace) in
  List.iter
    (fun (qid, outputs) ->
      let a = Multi_executor.answer outputs in
      check_bool (qid ^ " = fault-free") true
        (List.assoc qid expected
        = (a.Multi_executor.hash, a.Multi_executor.emitted)))
    r.Parallel_executor.per_query;
  let log = Parallel_executor.restarts_log p in
  check_int "three restarts" 3 (Parallel_executor.crash_count p);
  check_bool "the log lists them" true
    (List.sort compare
       (List.map
          (fun (x : Parallel_executor.restart) -> (x.shard, x.attempt))
          log)
    = [ (0, 1); (1, 1); (1, 2) ])

let test_sharded_guardrails () =
  let reg = star_registry () in
  let kill = [ { Fault_injector.shard = 2; at_seq = 10 } ] in
  Alcotest.check_raises "shards must be positive"
    (Invalid_argument "Parallel_executor.create_multi: shards must be positive")
    (fun () -> ignore (Parallel_executor.create_multi ~shards:0 reg));
  Alcotest.check_raises "kill beyond the fleet"
    (Invalid_argument
       "Parallel_executor.create_multi: kill aimed at shard 2, the fleet has 2")
    (fun () ->
      ignore (Parallel_executor.create_multi ~kills:kill ~shards:2 reg));
  let q = star_q1 () in
  let plan = Plan.mjoin (Cjq.stream_names q) in
  Alcotest.check_raises "single plan: shards must be positive"
    (Invalid_argument "Parallel_executor.create: shards must be positive")
    (fun () -> ignore (Parallel_executor.create ~shards:0 q plan));
  Alcotest.check_raises "single plan: kill beyond the fleet"
    (Invalid_argument
       "Parallel_executor.create: kill aimed at shard 2, the fleet has 2")
    (fun () ->
      ignore (Parallel_executor.create ~kills:kill ~shards:2 q plan));
  (* Conflicting schemas for one stream name are a registry-level error. *)
  let r_alt = int_schema "R" [ "K"; "Z"; "W" ] in
  let clash =
    Cjq.make
      [
        Stream_def.make r_alt [ Scheme.of_attrs r_alt [ "K" ] ];
        kdef "S" [ "B" ];
      ]
      [ Predicate.atom "R" "K" "S" "K" ]
  in
  let reg2 =
    Query_registry.create
      [
        { Query_registry.qid = "q1"; query = star_q1 () };
        { Query_registry.qid = "clash"; query = clash };
      ]
  in
  check_bool "conflicting schema raises" true
    (try
       ignore (Multi_executor.create reg2);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "multi_query"
    [
      ( "registry",
        [
          Alcotest.test_case "validates qids" `Quick test_registry_validates;
          Alcotest.test_case "canonical key modulo renaming" `Quick
            test_canonical_key_renaming;
          Alcotest.test_case "star candidates" `Quick
            test_shared_candidates_star;
        ] );
      ( "shareability",
        [
          Alcotest.test_case "accepts the star overlap" `Quick
            test_shareable_accepts_star;
          Alcotest.test_case "rejects intersection-unsafe sharing" `Quick
            test_shareable_rejects_intersection;
        ] );
      ( "planner",
        [
          Alcotest.test_case "folds the star family" `Quick
            test_plan_shared_star;
          Alcotest.test_case "share:false and unsafe fallback" `Quick
            test_plan_shared_disabled_and_fallback;
          Alcotest.test_case "twin triangles fully covered" `Quick
            test_plan_shared_twin_full_cover;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "star family, round trace" `Quick
            test_equivalence_star_round;
          Alcotest.test_case "star family, random traces" `Quick
            test_equivalence_star_random;
          Alcotest.test_case "twin triangles" `Quick
            test_equivalence_twin_triangle;
          Alcotest.test_case "shared fan-out delivers eagerly" `Quick
            test_shared_fanout_delivers_eagerly;
        ] );
      ( "state",
        [
          Alcotest.test_case "shared state strictly lower" `Quick
            test_shared_state_is_lower;
        ] );
      ( "observability",
        [
          Alcotest.test_case "shared-run trace verifies" `Quick
            test_shared_run_trace_verifies;
          Alcotest.test_case "sharded-run trace verifies" `Quick
            test_sharded_run_trace_verifies;
          Alcotest.test_case "sharded report carries the answers" `Quick
            test_sharded_report_carries_answers;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "guardrails" `Quick test_sharded_guardrails;
          Alcotest.test_case "kills recover the fault-free answer" `Quick
            test_sharded_kills_recover;
        ] );
    ]
