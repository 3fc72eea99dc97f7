open Relational
module Punctuation = Streams.Punctuation
module Scheme = Streams.Scheme
module Element = Streams.Element
module Stream_def = Streams.Stream_def
module Trace = Streams.Trace
module Source = Streams.Source
module Input_manager = Streams.Input_manager
open Fixtures

let punct schema bindings =
  Punctuation.of_bindings schema
    (List.map (fun (a, v) -> (a, Value.Int v)) bindings)

(* ------------------------------------------------------------------ *)
(* Punctuation *)

let test_punct_make_patterns () =
  let p = Punctuation.make s1 [ Punctuation.Wildcard; Punctuation.Const (Value.Int 7) ] in
  check_bool "pattern 0 wildcard" true (Punctuation.pattern_at p 0 = Punctuation.Wildcard);
  check_bool "const bindings" true (Punctuation.const_bindings p = [ (1, Value.Int 7) ])

let test_punct_rejects_all_wildcard () =
  Alcotest.check_raises "all wildcard"
    (Invalid_argument "Punctuation.make: all-wildcard punctuation") (fun () ->
      ignore (Punctuation.make s1 [ Punctuation.Wildcard; Punctuation.Wildcard ]))

let test_punct_rejects_bad_type () =
  Alcotest.check_raises "type"
    (Invalid_argument "Punctuation.make: attribute A expects int, got \"x\"")
    (fun () ->
      ignore
        (Punctuation.make s1
           [ Punctuation.Const (Value.Str "x"); Punctuation.Wildcard ]))

let test_punct_matches () =
  let p = punct s1 [ ("B", 7) ] in
  check_bool "matches" true (Punctuation.matches p (tuple s1 [ 1; 7 ]));
  check_bool "no match" false (Punctuation.matches p (tuple s1 [ 1; 8 ]))

let test_punct_covers () =
  let p = punct s1 [ ("B", 7) ] in
  check_bool "covers superset bindings" true
    (Punctuation.covers p [ (0, Value.Int 1); (1, Value.Int 7) ]);
  check_bool "covers exact" true (Punctuation.covers p [ (1, Value.Int 7) ]);
  check_bool "does not cover other value" false
    (Punctuation.covers p [ (1, Value.Int 8) ]);
  check_bool "does not cover unrelated attr" false
    (Punctuation.covers p [ (0, Value.Int 7) ])

let test_punct_subsumes () =
  let narrow = punct s1 [ ("A", 1); ("B", 7) ] in
  let wide = punct s1 [ ("B", 7) ] in
  check_bool "wide subsumes narrow" true (Punctuation.subsumes wide narrow);
  check_bool "narrow does not subsume wide" false (Punctuation.subsumes narrow wide)

let test_punct_to_string () =
  check_string "rendering" "S1(*, 7)" (Punctuation.to_string (punct s1 [ ("B", 7) ]))

(* ------------------------------------------------------------------ *)
(* Scheme *)

let test_scheme_of_attrs () =
  let sch = Scheme.of_attrs s1 [ "B" ] in
  check_bool "B punctuatable" true (Scheme.is_punctuatable sch "B");
  check_bool "A not" false (Scheme.is_punctuatable sch "A");
  check_bool "unknown attr not" false (Scheme.is_punctuatable sch "Z");
  Alcotest.(check (list string)) "attrs" [ "B" ] (Scheme.punctuatable_attrs sch)

let test_scheme_rejects_empty () =
  Alcotest.check_raises "no punctuatable"
    (Invalid_argument "Scheme.make: no punctuatable attribute") (fun () ->
      ignore (Scheme.make s1 [ Scheme.Not_punctuatable; Scheme.Not_punctuatable ]))

let test_scheme_instantiates () =
  let sch = Scheme.of_attrs s1 [ "B" ] in
  check_bool "instance" true (Scheme.instantiates sch (punct s1 [ ("B", 3) ]));
  check_bool "wrong attr" false (Scheme.instantiates sch (punct s1 [ ("A", 3) ]));
  check_bool "extra pin is not an instantiation" false
    (Scheme.instantiates sch (punct s1 [ ("A", 1); ("B", 3) ]))

let test_scheme_instantiate () =
  let sch = Scheme.of_attrs s3 [ "C"; "A" ] in
  let p = Scheme.instantiate sch [ ("A", Value.Int 1); ("C", Value.Int 2) ] in
  check_bool "round-trips" true (Scheme.instantiates sch p);
  Alcotest.check_raises "missing binding"
    (Invalid_argument "Scheme.instantiate: bindings must cover exactly {C, A} on S3")
    (fun () -> ignore (Scheme.instantiate sch [ ("A", Value.Int 1) ]))

let test_scheme_set_queries () =
  check_int "fig8 cardinality" 4 (Scheme.Set.cardinal fig8_schemes);
  check_int "schemes on S2" 2
    (List.length (Scheme.Set.for_stream fig8_schemes "S2"));
  check_int "single-attribute subset" 3
    (Scheme.Set.cardinal (Scheme.Set.single_attribute fig8_schemes));
  check_bool "S2.B punctuatable" true
    (Scheme.Set.stream_has_punctuatable fig8_schemes ~stream:"S2" ~attr:"B");
  check_bool "S3.A via multi-attr does not count as single" false
    (Scheme.Set.stream_has_punctuatable fig8_schemes ~stream:"S3" ~attr:"A")

let test_scheme_set_instantiated_by () =
  check_bool "finds owner" true
    (Scheme.Set.instantiated_by fig8_schemes (punct s2 [ ("C", 9) ]) <> None);
  check_bool "unregistered shape" true
    (Scheme.Set.instantiated_by fig8_schemes (punct s1 [ ("A", 9) ]) = None)

(* ------------------------------------------------------------------ *)
(* Stream_def *)

let test_stream_def () =
  let def = Stream_def.make s1 [ Scheme.of_attrs s1 [ "B" ] ] in
  check_string "name" "S1" (Stream_def.name def);
  check_int "one scheme" 1 (List.length (Stream_def.schemes def));
  Alcotest.check_raises "foreign scheme"
    (Invalid_argument
       "Stream_def.make: scheme S2(+, _) not over stream S1") (fun () ->
      ignore (Stream_def.make s1 [ Scheme.of_attrs s2 [ "B" ] ]))

let test_scheme_set_collection () =
  let defs =
    [
      Stream_def.make s1 [ Scheme.of_attrs s1 [ "B" ] ];
      Stream_def.make s2 [ Scheme.of_attrs s2 [ "B" ]; Scheme.of_attrs s2 [ "C" ] ];
    ]
  in
  check_int "collected" 3 (Scheme.Set.cardinal (Stream_def.scheme_set defs));
  check_string "find" "S2" (Stream_def.name (Stream_def.find defs "S2"))

(* ------------------------------------------------------------------ *)
(* Trace *)

let data schema values = Element.Data (tuple schema values)

let test_trace_counts_and_streams () =
  let tr =
    [ data s1 [ 1; 2 ]; Element.Punct (punct s1 [ ("B", 2) ]); data s2 [ 2; 3 ] ]
  in
  check_int "data" 2 (Trace.data_count tr);
  check_int "punct" 1 (Trace.punct_count tr);
  Alcotest.(check (list string)) "streams" [ "S1"; "S2" ] (Trace.streams tr);
  check_int "sub-trace" 2 (List.length (Trace.for_stream tr "S1"))

let test_trace_check_detects_violation () =
  let schemes = Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ] ] in
  let good = [ data s1 [ 1; 2 ]; Element.Punct (punct s1 [ ("B", 2) ]) ] in
  check_int "well-formed" 0 (List.length (Trace.check ~schemes good));
  let bad = [ Element.Punct (punct s1 [ ("B", 2) ]); data s1 [ 1; 2 ] ] in
  check_int "tuple after punctuation" 1 (List.length (Trace.check ~schemes bad))

let test_trace_check_unregistered_punct () =
  let schemes = Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ] ] in
  let tr = [ Element.Punct (punct s1 [ ("A", 1) ]) ] in
  check_int "unregistered" 1 (List.length (Trace.check ~schemes tr))

let test_trace_round_robin () =
  let t1 = [ data s1 [ 1; 1 ]; data s1 [ 2; 2 ] ] in
  let t2 = [ data s2 [ 1; 1 ] ] in
  let merged = Trace.round_robin [ t1; t2 ] in
  check_int "all elements" 3 (List.length merged);
  (* per-stream order preserved *)
  let s1_only = Trace.for_stream merged "S1" in
  check_bool "order" true
    (List.map (function Element.Data t -> Tuple.get t 0 | _ -> Value.Null) s1_only
     = [ Value.Int 1; Value.Int 2 ])

let test_trace_interleave_deterministic_and_order_preserving () =
  let t1 = List.init 20 (fun i -> data s1 [ i; i ]) in
  let t2 = List.init 10 (fun i -> data s2 [ i; i ]) in
  let m1 = Trace.interleave ~seed:9 [ (t1, 2); (t2, 1) ] in
  let m2 = Trace.interleave ~seed:9 [ (t1, 2); (t2, 1) ] in
  check_bool "deterministic" true (m1 = m2);
  check_int "complete" 30 (List.length m1);
  check_bool "per-stream order kept" true (Trace.for_stream m1 "S1" = t1)

(* ------------------------------------------------------------------ *)
(* Source and input manager *)

let test_source_of_fun_pull_once () =
  let calls = ref 0 in
  let src =
    Source.of_fun (fun () ->
        incr calls;
        if !calls <= 3 then Some (data s1 [ !calls; 0 ]) else None)
  in
  check_int "length" 3 (List.length (Source.to_list src));
  check_int "pulled exactly 4 times (3 + end)" 4 !calls

let test_source_combinators () =
  let src = Source.of_list (List.init 10 (fun i -> data s1 [ i; i ])) in
  check_int "take" 4 (Source.length (Source.take 4 src));
  check_int "append" 20 (Source.length (Source.append src src));
  check_int "filter" 5
    (Source.length
       (Source.filter
          (function Element.Data t -> Tuple.get t 0 < Value.Int 5 | _ -> false)
          src))

let test_input_manager_round_robin () =
  let im =
    Input_manager.create
      [
        ("S1", Source.of_list (List.init 4 (fun i -> data s1 [ i; i ])));
        ("S2", Source.of_list (List.init 2 (fun i -> data s2 [ i; i ])));
      ]
  in
  let tr = Input_manager.to_trace im in
  check_int "complete" 6 (List.length tr);
  check_bool "starts alternating" true
    (Element.stream_name (List.nth tr 0) = "S1"
    && Element.stream_name (List.nth tr 1) = "S2")

let test_input_manager_weighted_deterministic () =
  let mk () =
    Input_manager.create ~seed:5
      ~policy:(Input_manager.Weighted [ ("S1", 3); ("S2", 1) ])
      [
        ("S1", Source.of_list (List.init 30 (fun i -> data s1 [ i; i ])));
        ("S2", Source.of_list (List.init 10 (fun i -> data s2 [ i; i ])));
      ]
  in
  let t1 = Input_manager.to_trace (mk ()) in
  let t2 = Input_manager.to_trace (mk ()) in
  check_bool "deterministic" true (t1 = t2);
  check_int "complete" 40 (List.length t1);
  check_bool "order preserved per stream" true
    (Trace.for_stream t1 "S2" = List.init 10 (fun i -> data s2 [ i; i ]))

let test_input_manager_weighted_seed_zero () =
  (* Regression: the weighted merge used to drive a private xorshift whose
     state 0 is an absorbing fixpoint — with [~seed:0] every draw was 0,
     so the first live source was drained completely before the second
     advanced at all. The splitmix64 generator has no such state: both
     streams must interleave. *)
  let im =
    Input_manager.create ~seed:0
      ~policy:(Input_manager.Weighted [ ("S1", 1); ("S2", 1) ])
      [
        ("S1", Source.of_list (List.init 30 (fun i -> data s1 [ i; i ])));
        ("S2", Source.of_list (List.init 10 (fun i -> data s2 [ i; i ])));
      ]
  in
  let tr = Input_manager.to_trace im in
  check_int "complete" 40 (List.length tr);
  let first_s2 =
    List.mapi (fun i e -> (i, e)) tr
    |> List.find_map (fun (i, e) ->
           if Element.stream_name e = "S2" then Some i else None)
    |> Option.get
  in
  check_bool "S2 advances before S1 is exhausted" true (first_s2 < 30)

let test_input_manager_rejects_duplicates () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Input_manager.create: duplicate stream source")
    (fun () ->
      ignore
        (Input_manager.create [ ("S1", Source.of_list []); ("S1", Source.of_list []) ]))

let test_input_manager_ephemeral_source () =
  (* A side-effecting source must be pulled at most once per element even
     though the merger inspects heads it does not immediately consume. *)
  let produced = ref 0 in
  let src =
    Source.of_fun (fun () ->
        incr produced;
        if !produced <= 5 then Some (data s1 [ !produced; 0 ]) else None)
  in
  let im =
    Input_manager.create
      [ ("S1", src); ("S2", Source.of_list [ data s2 [ 1; 1 ] ]) ]
  in
  let tr = Input_manager.to_trace im in
  check_int "complete" 6 (List.length tr);
  let keys =
    List.filter_map
      (function
        | Element.Data t when Element.stream_name (Element.Data t) = "S1" ->
            Some (Tuple.get t 0)
        | _ -> None)
      tr
  in
  check_bool "no skipped elements" true
    (keys = List.init 5 (fun i -> Value.Int (i + 1)))

(* ------------------------------------------------------------------ *)
(* Trace serialization *)

let test_trace_io_round_trip_auction () =
  let defs = Workload.Auction.stream_defs () in
  let trace =
    Workload.Auction.trace { Workload.Auction.default_config with n_items = 25 }
  in
  let text = Streams.Trace_io.to_string trace in
  let back = Streams.Trace_io.of_string ~defs text in
  check_bool "round trip" true (trace = back)

let test_trace_io_round_trip_watermarks () =
  let defs = Workload.Orders.stream_defs () in
  let trace =
    Workload.Orders.trace { Workload.Orders.default_config with n_orders = 30 }
  in
  let back =
    Streams.Trace_io.of_string ~defs (Streams.Trace_io.to_string trace)
  in
  check_bool "watermarks survive" true (trace = back)

let test_trace_io_escaping () =
  let schema =
    Schema.make ~stream:"s"
      [ { Schema.name = "x"; ty = Value.TStr }; { Schema.name = "y"; ty = Value.TFloat } ]
  in
  let defs = [ Stream_def.make schema [] ] in
  let tricky =
    [
      Element.Data
        (Tuple.make schema [ Value.Str "a, b %100\nc"; Value.Float 0.1 ]);
      Element.Data (Tuple.make schema [ Value.Null; Value.Float (-1e-9) ]);
    ]
  in
  let back =
    Streams.Trace_io.of_string ~defs (Streams.Trace_io.to_string tricky)
  in
  check_bool "escaped round trip" true (tricky = back)

let expect_format_error text expected_line =
  let defs = [ Stream_def.make s1 [] ] in
  match Streams.Trace_io.of_string ~defs text with
  | exception Streams.Trace_io.Format_error { line; _ } ->
      check_int "line" expected_line line
  | _ -> Alcotest.fail "expected Format_error"

let test_trace_io_errors () =
  expect_format_error "nonsense" 1;
  expect_format_error "data S1 i:1,i:2\ndata S9 i:1,i:2" 2;
  expect_format_error "data S1 i:1,wat" 1;
  expect_format_error "punct S1 *,!5" 1;
  (* comments and blank lines are fine *)
  let defs = [ Stream_def.make s1 [] ] in
  check_int "comments skipped" 1
    (List.length
       (Streams.Trace_io.of_string ~defs "# hello\n\ndata S1 i:1,i:2\n"))

(* ------------------------------------------------------------------ *)
(* Rng *)

(* Golden values pin the splitmix64 stream byte-for-byte: any change to the
   generator (reseeding discipline, mixing constants, rejection sampling)
   silently reshuffles every seeded workload trace and benchmark, so it must
   fail loudly here instead. *)

let test_rng_pinned_ints () =
  let draw seed =
    let r = Streams.Rng.create ~seed in
    List.init 8 (fun _ -> Streams.Rng.int r 1_000_000)
  in
  check_bool "seed 42" true
    (draw 42 = [ 637706; 446145; 381929; 127882; 981625; 494531; 812462; 887954 ]);
  check_bool "seed 0 is not absorbing" true
    (draw 0 = [ 303767; 177850; 772839; 271222; 47373; 581045; 153456; 173470 ])

let test_rng_pinned_floats_and_bools () =
  let rf = Streams.Rng.create ~seed:7 in
  let floats = List.init 4 (fun _ -> Streams.Rng.float rf) in
  List.iter2
    (fun got expect ->
      check_bool (Printf.sprintf "float %.17g" expect) true
        (abs_float (got -. expect) < 1e-15))
    floats
    [ 0.38982974839127149; 0.016788294528156111; 0.90076068060688341; 0.58293029302807808 ];
  let rb = Streams.Rng.create ~seed:7 in
  let bools = List.init 12 (fun _ -> Streams.Rng.bool rb) in
  check_bool "bools" true
    (bools
    = [ true; false; false; true; false; true; false; false; true; true; true; false ])

let test_rng_workload_alias_identical () =
  (* [Workload.Rng] is a re-export of [Streams.Rng], not a fork: a trace
     seeded through either module must be the same trace. *)
  let a = Streams.Rng.create ~seed:9001 in
  let b = Workload.Rng.create ~seed:9001 in
  let seq r intf boolf =
    List.init 64 (fun i ->
        if i mod 3 = 2 then Bool.to_int (boolf r) else intf r (1 lsl 20))
  in
  check_bool "identical sequences" true
    (seq a Streams.Rng.int Streams.Rng.bool = seq b Workload.Rng.int Workload.Rng.bool)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_covers_monotone =
  QCheck2.Test.make ~name:"covers is monotone in bindings" ~count:300
    QCheck2.Gen.(pair (int_range 0 5) (int_range 0 5))
    (fun (b, extra) ->
      let p = punct s1 [ ("B", b) ] in
      let small = [ (1, Value.Int b) ] in
      let big = (0, Value.Int extra) :: small in
      (not (Punctuation.covers p small)) || Punctuation.covers p big)

let prop_interleave_preserves_length =
  QCheck2.Test.make ~name:"interleave preserves multiset of elements" ~count:100
    QCheck2.Gen.(pair (int_range 0 20) (int_range 0 20))
    (fun (n1, n2) ->
      let t1 = List.init n1 (fun i -> data s1 [ i; i ]) in
      let t2 = List.init n2 (fun i -> data s2 [ i; i ]) in
      let m = Trace.interleave ~seed:(n1 + (31 * n2)) [ (t1, 1); (t2, 3) ] in
      List.length m = n1 + n2
      && Trace.for_stream m "S1" = t1
      && Trace.for_stream m "S2" = t2)

(* The quadratic [Trace.check] this repository used before it indexed the
   punctuation history: every data tuple against every earlier punctuation
   of its stream, newest first. Kept as the reference. *)
let reference_check ~schemes t =
  let seen : (string, Punctuation.t list ref) Hashtbl.t = Hashtbl.create 8 in
  let past s =
    match Hashtbl.find_opt seen s with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add seen s r;
        r
  in
  List.concat_map
    (fun e ->
      let s = Element.stream_name e in
      match e with
      | Element.Punct p ->
          (past s) := p :: !(past s);
          if Scheme.Set.instantiated_by schemes p = None then
            [ Trace.Unregistered_punctuation p ]
          else []
      | Element.Data tup ->
          List.filter_map
            (fun p ->
              if Punctuation.matches p tup then
                Some (Trace.Tuple_after_punctuation (tup, p))
              else None)
            !(past s))
    t

let same_violation a b =
  match (a, b) with
  | Trace.Tuple_after_punctuation (t, p), Trace.Tuple_after_punctuation (u, q)
    ->
      t == u && p == q
  | Trace.Unregistered_punctuation p, Trace.Unregistered_punctuation q -> p == q
  | _ -> false

(* Random traces over S1(A, B) and S2(B, C) mixing constants on one or
   both attributes, watermarks, constant-plus-watermark punctuations,
   duplicates and Null values, most of them violating. *)
let prop_trace_check_reference =
  QCheck2.Test.make ~name:"Trace.check = reference scan" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (triple (int_range 0 8) (int_range 0 5) (int_range 0 5)))
    (fun ops ->
      let v x = if x = 5 then Value.Null else Value.Int x in
      let tr =
        List.map
          (fun (op, a, b) ->
            let sch = if op land 1 = 0 then s1 else s2 in
            let x = (Schema.attr_at sch 0).Schema.name
            and y = (Schema.attr_at sch 1).Schema.name in
            let a' = Value.Int (a mod 5) and b' = Value.Int (b mod 5) in
            match op with
            | 0 | 1 | 2 | 3 -> Element.Data (Tuple.make sch [ v a; v b ])
            | 4 -> Element.Punct (Punctuation.of_bindings sch [ (y, b') ])
            | 5 ->
                Element.Punct (Punctuation.of_bindings sch [ (x, a'); (y, b') ])
            | 6 -> Element.Punct (Punctuation.watermark sch y b')
            | 7 ->
                Element.Punct
                  (Punctuation.of_constraints sch
                     [ (x, Punctuation.Const a'); (y, Punctuation.Less_than b') ])
            | _ -> Element.Punct (Punctuation.of_bindings sch [ (x, a') ]))
          ops
      in
      let schemes =
        Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ]; Scheme.ordered s2 [ "C" ] ]
      in
      let got = Trace.check ~schemes tr and want = reference_check ~schemes tr in
      List.length got = List.length want && List.for_all2 same_violation got want)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_covers_monotone;
      prop_interleave_preserves_length;
      prop_trace_check_reference;
    ]

let () =
  Alcotest.run "streams"
    [
      ( "punctuation",
        [
          Alcotest.test_case "patterns" `Quick test_punct_make_patterns;
          Alcotest.test_case "all-wildcard rejected" `Quick test_punct_rejects_all_wildcard;
          Alcotest.test_case "bad type rejected" `Quick test_punct_rejects_bad_type;
          Alcotest.test_case "matches" `Quick test_punct_matches;
          Alcotest.test_case "covers" `Quick test_punct_covers;
          Alcotest.test_case "subsumes" `Quick test_punct_subsumes;
          Alcotest.test_case "rendering" `Quick test_punct_to_string;
        ] );
      ( "scheme",
        [
          Alcotest.test_case "of_attrs" `Quick test_scheme_of_attrs;
          Alcotest.test_case "empty rejected" `Quick test_scheme_rejects_empty;
          Alcotest.test_case "instantiates" `Quick test_scheme_instantiates;
          Alcotest.test_case "instantiate" `Quick test_scheme_instantiate;
          Alcotest.test_case "scheme set queries" `Quick test_scheme_set_queries;
          Alcotest.test_case "instantiated_by" `Quick test_scheme_set_instantiated_by;
        ] );
      ( "stream_def",
        [
          Alcotest.test_case "make/find" `Quick test_stream_def;
          Alcotest.test_case "scheme_set" `Quick test_scheme_set_collection;
        ] );
      ( "trace",
        [
          Alcotest.test_case "counts/streams" `Quick test_trace_counts_and_streams;
          Alcotest.test_case "violation detection" `Quick test_trace_check_detects_violation;
          Alcotest.test_case "unregistered punctuation" `Quick test_trace_check_unregistered_punct;
          Alcotest.test_case "round robin" `Quick test_trace_round_robin;
          Alcotest.test_case "interleave" `Quick
            test_trace_interleave_deterministic_and_order_preserving;
        ] );
      ( "trace_io",
        [
          Alcotest.test_case "auction round trip" `Quick test_trace_io_round_trip_auction;
          Alcotest.test_case "watermark round trip" `Quick test_trace_io_round_trip_watermarks;
          Alcotest.test_case "escaping" `Quick test_trace_io_escaping;
          Alcotest.test_case "errors" `Quick test_trace_io_errors;
        ] );
      ( "source/input_manager",
        [
          Alcotest.test_case "of_fun single pull" `Quick test_source_of_fun_pull_once;
          Alcotest.test_case "combinators" `Quick test_source_combinators;
          Alcotest.test_case "round robin" `Quick test_input_manager_round_robin;
          Alcotest.test_case "weighted deterministic" `Quick
            test_input_manager_weighted_deterministic;
          Alcotest.test_case "weighted seed zero interleaves" `Quick
            test_input_manager_weighted_seed_zero;
          Alcotest.test_case "duplicates rejected" `Quick
            test_input_manager_rejects_duplicates;
          Alcotest.test_case "ephemeral source safety" `Quick
            test_input_manager_ephemeral_source;
        ] );
      ( "rng",
        [
          Alcotest.test_case "pinned int trace" `Quick test_rng_pinned_ints;
          Alcotest.test_case "pinned floats/bools" `Quick
            test_rng_pinned_floats_and_bools;
          Alcotest.test_case "Workload.Rng alias identical" `Quick
            test_rng_workload_alias_identical;
        ] );
      ("properties", props);
    ]
