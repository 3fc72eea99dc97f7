(* Disjunctive join predicates — the paper's future work (ii): safety
   condition (every disjunct must be punctuatable) and the dualized runtime
   purge rule. *)

open Relational
module Scheme = Streams.Scheme
module Stream_def = Streams.Stream_def
module Element = Streams.Element
module Punctuation = Streams.Punctuation
module Disjunctive = Core.Disjunctive
module Djoin = Engine.Disjunctive_join
open Fixtures

let t1 = int_schema "T1" [ "a"; "b" ]
let t2 = int_schema "T2" [ "x"; "y" ]

let or_clause () =
  Disjunctive.clause
    [ Predicate.atom "T1" "a" "T2" "x"; Predicate.atom "T1" "b" "T2" "y" ]

let dquery schemes2 =
  Disjunctive.make
    [
      Stream_def.make t1 [ Scheme.of_attrs t1 [ "a" ]; Scheme.of_attrs t1 [ "b" ] ];
      Stream_def.make t2 schemes2;
    ]
    [ or_clause () ]

let full_schemes2 = [ Scheme.of_attrs t2 [ "x" ]; Scheme.of_attrs t2 [ "y" ] ]

(* ------------------------------------------------------------------ *)
(* Structure *)

let test_clause_validation () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Disjunctive.clause: empty disjunction") (fun () ->
      ignore (Disjunctive.clause []));
  Alcotest.check_raises "mixed pairs"
    (Invalid_argument
       "Disjunctive.clause: atoms must all join the same stream pair")
    (fun () ->
      ignore
        (Disjunctive.clause
           [ Predicate.atom "T1" "a" "T2" "x"; Predicate.atom "T1" "a" "S3" "C" ]))

let test_make_validation () =
  Alcotest.check_raises "undeclared stream"
    (Invalid_argument "Disjunctive.make: undeclared stream T2") (fun () ->
      ignore (Disjunctive.make [ Stream_def.make t1 []; Stream_def.make s1 [] ]
                [ or_clause () ]));
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Disjunctive.make: clause graph is not connected")
    (fun () ->
      ignore
        (Disjunctive.make
           [ Stream_def.make t1 []; Stream_def.make t2 []; Stream_def.make s1 [] ]
           [ or_clause () ]))

let test_joins_semantics () =
  let c = or_clause () in
  check_bool "first disjunct" true
    (Disjunctive.joins c (tuple t1 [ 1; 9 ]) (tuple t2 [ 1; 8 ]));
  check_bool "second disjunct" true
    (Disjunctive.joins c (tuple t1 [ 7; 2 ]) (tuple t2 [ 9; 2 ]));
  check_bool "neither" false
    (Disjunctive.joins c (tuple t1 [ 1; 2 ]) (tuple t2 [ 3; 4 ]))

(* ------------------------------------------------------------------ *)
(* Safety *)

let test_safe_when_all_disjuncts_covered () =
  let q = dquery full_schemes2 in
  check_bool "safe" true (Disjunctive.is_safe q);
  check_bool "T1 purgeable" true (Disjunctive.stream_purgeable q "T1");
  check_bool "T2 purgeable" true (Disjunctive.stream_purgeable q "T2")

let test_unsafe_when_one_disjunct_uncovered () =
  (* without T2's y-scheme, a future T2 tuple matching via the second
     disjunct can never be ruled out: T1 is unpurgeable *)
  let q = dquery [ Scheme.of_attrs t2 [ "x" ] ] in
  check_bool "T1 not purgeable" false (Disjunctive.stream_purgeable q "T1");
  check_bool "unsafe" false (Disjunctive.is_safe q);
  (* T2 remains purgeable: T1 declares schemes on both its attributes *)
  check_bool "T2 still purgeable" true (Disjunctive.stream_purgeable q "T2")

let test_multi_attr_scheme_does_not_count () =
  (* a scheme pinning both x and y cannot rule out one disjunct alone *)
  let q = dquery [ Scheme.of_attrs t2 [ "x"; "y" ] ] in
  check_bool "unsafe despite covering both attrs jointly" false
    (Disjunctive.is_safe q)

let test_single_atom_clause_matches_conjunctive_checker () =
  (* degenerate disjunction = the paper's conjunctive case: verdicts agree
     with the Cjq checker across random instances *)
  for seed = 0 to 30 do
    let config =
      {
        Workload.Synth.default_query_config with
        n_streams = 3;
        extra_edges = 0;
        seed;
      }
    in
    let q = Workload.Synth.random_query config in
    let dq =
      Disjunctive.make
        (Query.Cjq.stream_defs q)
        (List.map (fun a -> Disjunctive.clause [ a ]) (Query.Cjq.predicates q))
    in
    (* restrict the conjunctive side to single-attribute schemes: the
       disjunctive checker deliberately ignores multi-attribute ones *)
    let single =
      Scheme.Set.single_attribute (Query.Cjq.scheme_set q)
    in
    check_bool
      (Printf.sprintf "seed %d agrees" seed)
      (Core.Checker.is_safe ~method_:Core.Checker.Pg ~schemes:single q)
      (Disjunctive.is_safe ~schemes:single dq)
  done

(* ------------------------------------------------------------------ *)
(* Runtime *)

let djoin ?policy () =
  Djoin.create ?policy
    ~left:{ Djoin.name = "T1"; schema = t1 }
    ~right:{ Djoin.name = "T2"; schema = t2 }
    ~clause:(or_clause ()) ()

let test_runtime_matches_either_disjunct () =
  let op = djoin () in
  ignore (op.Engine.Operator.push [| Element.Data (tuple t1 [ 1; 2 ]) |]);
  (* matches via x = a *)
  check_int "via first disjunct" 1
    (List.length (op.Engine.Operator.push [| Element.Data (tuple t2 [ 1; 99 ]) |]));
  (* matches via y = b *)
  check_int "via second disjunct" 1
    (List.length (op.Engine.Operator.push [| Element.Data (tuple t2 [ 98; 2 ]) |]));
  (* matches via both disjuncts: still exactly one output *)
  check_int "both disjuncts, one output" 1
    (List.length (op.Engine.Operator.push [| Element.Data (tuple t2 [ 1; 2 ]) |]));
  check_int "no match" 0
    (List.length (op.Engine.Operator.push [| Element.Data (tuple t2 [ 50; 51 ]) |]))

let test_runtime_purge_needs_every_disjunct () =
  let op = djoin () in
  ignore (op.Engine.Operator.push [| Element.Data (tuple t1 [ 1; 2 ]) |]);
  (* ruling out x=1 alone is not enough: y=2 could still arrive *)
  ignore
    (op.Engine.Operator.push
       [| Element.Punct (Punctuation.of_bindings t2 [ ("x", Value.Int 1) ]) |]);
  check_int "still stored" 1 (op.Engine.Operator.data_state_size ());
  ignore
    (op.Engine.Operator.push
       [| Element.Punct (Punctuation.of_bindings t2 [ ("y", Value.Int 2) ]) |]);
  check_int "dead once both disjuncts ruled out" 0
    (op.Engine.Operator.data_state_size ())

let test_runtime_equals_brute_force () =
  (* random tuples + per-attribute punctuations; compare against a nested
     loop with OR semantics, purging must lose nothing *)
  let carrier =
    Query.Cjq.make
      [
        Stream_def.make t1 [ Scheme.of_attrs t1 [ "a" ]; Scheme.of_attrs t1 [ "b" ] ];
        Stream_def.make t2 full_schemes2;
      ]
      [ Predicate.atom "T1" "a" "T2" "x" ]
  in
  for seed = 0 to 20 do
    let trace =
      Workload.Synth.random_trace carrier ~elements_per_stream:25
        ~value_range:4 ~punct_prob:0.6 ~seed
    in
    let tuples_of name =
      List.filter_map
        (fun e ->
          match e with
          | Element.Data tup when Element.stream_name e = name -> Some tup
          | _ -> None)
        trace
    in
    let expected =
      List.fold_left
        (fun acc x ->
          acc
          + List.length
              (List.filter
                 (fun y -> Disjunctive.joins (or_clause ()) x y)
                 (tuples_of "T2")))
        0 (tuples_of "T1")
    in
    let op = djoin () in
    let found = ref 0 in
    List.iter
      (fun e ->
        List.iter
          (fun out -> if Element.is_data out then incr found)
          (op.Engine.Operator.push [| e |]))
      trace;
    check_int (Printf.sprintf "seed %d" seed) expected !found
  done

let test_runtime_bounded_on_rounds () =
  let op = djoin () in
  let peak = ref 0 in
  for k = 1 to 200 do
    ignore (op.Engine.Operator.push [| Element.Data (tuple t1 [ k; k ]) |]);
    ignore (op.Engine.Operator.push [| Element.Data (tuple t2 [ k; k ]) |]);
    List.iter
      (fun (schema, attr) ->
        ignore
          (op.Engine.Operator.push
             [| Element.Punct
                (Punctuation.of_bindings schema [ (attr, Value.Int k) ]) |]))
      [ (t1, "a"); (t1, "b"); (t2, "x"); (t2, "y") ];
    peak := max !peak (op.Engine.Operator.data_state_size ())
  done;
  check_bool "bounded" true (!peak <= 4);
  check_int "drained" 0 (op.Engine.Operator.data_state_size ())

let () =
  Alcotest.run "disjunctive"
    [
      ( "structure",
        [
          Alcotest.test_case "clause validation" `Quick test_clause_validation;
          Alcotest.test_case "query validation" `Quick test_make_validation;
          Alcotest.test_case "join semantics" `Quick test_joins_semantics;
        ] );
      ( "safety",
        [
          Alcotest.test_case "all disjuncts covered" `Quick
            test_safe_when_all_disjuncts_covered;
          Alcotest.test_case "one disjunct uncovered" `Quick
            test_unsafe_when_one_disjunct_uncovered;
          Alcotest.test_case "multi-attr scheme insufficient" `Quick
            test_multi_attr_scheme_does_not_count;
          Alcotest.test_case "degenerate = conjunctive" `Quick
            test_single_atom_clause_matches_conjunctive_checker;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "either disjunct matches" `Quick
            test_runtime_matches_either_disjunct;
          Alcotest.test_case "purge needs every disjunct" `Quick
            test_runtime_purge_needs_every_disjunct;
          Alcotest.test_case "equals brute force" `Quick test_runtime_equals_brute_force;
          Alcotest.test_case "bounded on rounds" `Quick test_runtime_bounded_on_rounds;
        ] );
    ]
