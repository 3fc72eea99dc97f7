open Relational
module Scheme = Streams.Scheme
module Punctuation = Streams.Punctuation
module Element = Streams.Element
module Cjq = Query.Cjq
module Plan = Query.Plan
module Block = Core.Block
module PG = Core.Punctuation_graph
module Gpg = Core.Gpg
module Tpg = Core.Tpg
module Checker = Core.Checker
module Chained_purge = Core.Chained_purge
module Witness = Core.Witness
module Planner = Core.Planner
module Cost_model = Core.Cost_model
module Punct_purge = Core.Punct_purge
open Fixtures

let names = [ "S1"; "S2"; "S3" ]

(* ------------------------------------------------------------------ *)
(* Block *)

let test_block_basics () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Block.make: duplicate stream in block") (fun () ->
      ignore (Block.make [ "S2"; "S1"; "S2" ]));
  let b = Block.make [ "S2"; "S1" ] in
  Alcotest.(check (list string)) "sorted" [ "S1"; "S2" ] (Block.streams b);
  check_bool "mem" true (Block.mem "S1" b);
  check_bool "equal modulo order" true (Block.equal b (Block.make [ "S1"; "S2" ]));
  Alcotest.check_raises "overlap"
    (Invalid_argument "Block.partition_of: blocks overlap") (fun () ->
      ignore (Block.partition_of [ Block.make [ "S1" ]; Block.make [ "S1"; "S2" ] ]))

(* ------------------------------------------------------------------ *)
(* Punctuation graph (Def 7, Example 3, Theorem 1/2) *)

let test_binary_join_pg () =
  (* §3.1: purging Υ_S1 needs a scheme on S2's side of the predicate. *)
  let schemes = Scheme.Set.of_list [ Scheme.of_attrs s2 [ "B" ] ] in
  let pg = PG.of_streams [ "S1"; "S2" ] path_preds schemes in
  check_bool "S1 purgeable" true (PG.reaches_all pg (Block.singleton "S1"));
  check_bool "S2 not purgeable" false (PG.reaches_all pg (Block.singleton "S2"));
  check_bool "operator not purgeable" false (PG.is_strongly_connected pg)

let test_binary_conjunctive_predicates () =
  (* §3.1 end: with conjunctive predicates, one punctuatable attribute
     among the join attributes suffices. *)
  let preds =
    [ Predicate.atom "S1" "A" "S2" "B"; Predicate.atom "S1" "B" "S2" "C" ]
  in
  let schemes = Scheme.Set.of_list [ Scheme.of_attrs s2 [ "C" ] ] in
  let pg = PG.of_streams [ "S1"; "S2" ] preds schemes in
  check_bool "S1 purgeable via one of two attrs" true
    (PG.reaches_all pg (Block.singleton "S1"))

let test_fig5_pg_cycle () =
  let pg = PG.of_streams names triangle_preds fig5_schemes in
  check_bool "strongly connected" true (PG.is_strongly_connected pg);
  (* the exact three edges of Example 3 *)
  let g = PG.graph pg in
  check_int "three edges" 3 (PG.G.n_edges g);
  check_bool "S2 -> S1" true
    (PG.G.mem_edge g (Block.singleton "S2") (Block.singleton "S1"));
  check_bool "S3 -> S2" true
    (PG.G.mem_edge g (Block.singleton "S3") (Block.singleton "S2"));
  check_bool "S1 -> S3" true
    (PG.G.mem_edge g (Block.singleton "S1") (Block.singleton "S3"))

let test_fig5_edge_reasons () =
  let pg = PG.of_streams names triangle_preds fig5_schemes in
  let reasons = PG.edge_reasons pg in
  check_int "three reasons" 3 (List.length reasons);
  check_bool "each edge has its scheme on the target side" true
    (List.for_all
       (fun (r : PG.edge_reason) ->
         Block.mem (Scheme.stream_name r.scheme) r.dst)
       reasons)

let test_fig8_pg_not_strongly_connected () =
  let pg = PG.of_streams names triangle_preds fig8_schemes in
  check_bool "not SC (multi-attr scheme unusable here)" false
    (PG.is_strongly_connected pg);
  (* S3 is purgeable by Theorem 1 even in the plain graph *)
  check_bool "S3 reaches all" true (PG.reaches_all pg (Block.singleton "S3"));
  check_bool "S1 does not" false (PG.reaches_all pg (Block.singleton "S1"))

let test_fig7_block_level () =
  (* Lower operator of the binary tree: S1 ⋈ S2 alone — not purgeable. *)
  let lower = PG.of_streams [ "S1"; "S2" ] triangle_preds fig5_schemes in
  check_bool "lower unsafe" false (PG.is_strongly_connected lower);
  (* Upper operator: composite {S1,S2} against S3 — purgeable. *)
  let upper =
    PG.of_blocks
      [ Block.make [ "S1"; "S2" ]; Block.singleton "S3" ]
      triangle_preds fig5_schemes
  in
  check_bool "upper safe" true (PG.is_strongly_connected upper)

let test_pg_ignores_internal_predicates () =
  let pg =
    PG.of_blocks [ Block.make [ "S1"; "S2"; "S3" ] ] triangle_preds fig5_schemes
  in
  check_int "no edges within one block" 0 (PG.G.n_edges (PG.graph pg))

(* ------------------------------------------------------------------ *)
(* GPG (Defs 8–10, §4.2, Figure 9, Theorem 3) *)

let test_fig8_gpg_strongly_connected () =
  let gpg = Gpg.of_streams names triangle_preds fig8_schemes in
  check_bool "SC under generalized semantics" true
    (Gpg.is_strongly_connected gpg);
  List.iter
    (fun s ->
      check_bool (s ^ " purgeable") true (Gpg.reaches_all gpg (Block.singleton s)))
    names

let test_fig9_generalized_edge () =
  let gpg = Gpg.of_streams names triangle_preds fig8_schemes in
  let gedge =
    List.find
      (fun (e : Gpg.gedge) -> e.stream = "S3")
      (Gpg.edges gpg)
  in
  (* The generalized node G_{1,2} of Figure 9: A pinned by S1, C by S2. *)
  let sources = List.sort compare
      (List.map (fun (a, bs) -> (a, List.map Block.streams bs)) gedge.sources)
  in
  Alcotest.(check bool) "A from S1, C from S2" true
    (sources = [ ("A", [ [ "S1" ] ]); ("C", [ [ "S2" ] ]) ]
     || sources = [ ("C", [ [ "S2" ] ]); ("A", [ [ "S1" ] ]) ])

let test_gpg_rejects_non_join_punctuatable_attr () =
  (* A scheme pinning a non-join attribute can never help (DESIGN §3.2):
     in the path query S1.A joins nothing, so S1(+,+) is unusable. *)
  let schemes = Scheme.Set.of_list [ Scheme.of_attrs s1 [ "A"; "B" ] ] in
  let gpg = Gpg.of_streams names path_preds schemes in
  check_int "no usable edge" 0 (List.length (Gpg.edges gpg))

let test_gpg_single_attr_matches_pg () =
  let pg = PG.of_streams names triangle_preds fig5_schemes in
  let gpg = Gpg.of_streams names triangle_preds fig5_schemes in
  check_bool "same verdict on single-attr schemes" true
    (PG.is_strongly_connected pg = Gpg.is_strongly_connected gpg)

let test_gpg_to_dot_figure9 () =
  let gpg = Gpg.of_streams names triangle_preds fig8_schemes in
  let dot = Gpg.to_dot gpg in
  let contains needle =
    let nh = String.length dot and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub dot i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "has a generalized node" true (contains "shape=box");
  check_bool "plain edges rendered directly" true (contains "\"S2\" -> \"S1\"");
  check_bool "generalized edge reaches S3" true (contains "-> \"S3\"")

let test_gpg_reachable_closure () =
  let gpg = Gpg.of_streams names triangle_preds fig8_schemes in
  let r = Gpg.reachable gpg (Block.singleton "S1") in
  check_int "S1 closure covers all" 3 (List.length r)

(* ------------------------------------------------------------------ *)
(* TPG (Def 11, Figure 10, Theorem 5) *)

let test_fig10_tpg_trace () =
  let tpg = Tpg.of_streams names triangle_preds fig8_schemes in
  check_bool "safe" true (Tpg.is_safe tpg);
  let steps = Tpg.steps tpg in
  check_int "two iterations" 2 (List.length steps);
  (* first iteration merges exactly {S1, S2} *)
  (match (List.hd steps).Tpg.merged with
  | [ merged ] ->
      Alcotest.(check (list string))
        "first merge" [ "S1"; "S2" ]
        (sorted_strings (List.concat_map Block.streams merged))
  | _ -> Alcotest.fail "expected exactly one merged component");
  (match Tpg.final_nodes tpg with
  | [ node ] ->
      Alcotest.(check (list string)) "single virtual node" names (Block.streams node)
  | _ -> Alcotest.fail "expected a single final node")

let test_tpg_unsafe_stops () =
  let schemes = Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ] ] in
  let tpg = Tpg.of_streams names triangle_preds schemes in
  check_bool "unsafe" false (Tpg.is_safe tpg);
  check_bool "several nodes remain" true (List.length (Tpg.final_nodes tpg) > 1)

let test_tpg_pure_multi_attr_pair () =
  (* Two streams joined on two attributes, each with only a (+,+) scheme:
     the literal Def 11 would never start; our Thm-5-faithful variant must
     say safe (GPG agrees). *)
  let ss1 = int_schema "T1" [ "X"; "Y" ] in
  let ss2 = int_schema "T2" [ "X"; "Y" ] in
  let preds =
    [ Predicate.atom "T1" "X" "T2" "X"; Predicate.atom "T1" "Y" "T2" "Y" ]
  in
  let schemes =
    Scheme.Set.of_list
      [ Scheme.of_attrs ss1 [ "X"; "Y" ]; Scheme.of_attrs ss2 [ "X"; "Y" ] ]
  in
  let gpg = Gpg.of_streams [ "T1"; "T2" ] preds schemes in
  let tpg = Tpg.of_streams [ "T1"; "T2" ] preds schemes in
  check_bool "GPG safe" true (Gpg.is_strongly_connected gpg);
  check_bool "TPG agrees" true (Tpg.is_safe tpg)

(* ------------------------------------------------------------------ *)
(* Chained purge (§3.2.1, Figure 3, §4.2 example) *)

let test_chained_purge_derive_path () =
  (* Figure 3/4: acyclic path, schemes on S2.B and S3.C. *)
  let schemes =
    Scheme.Set.of_list [ Scheme.of_attrs s2 [ "B" ]; Scheme.of_attrs s3 [ "C" ] ]
  in
  match Chained_purge.derive names path_preds schemes ~root:"S1" with
  | None -> Alcotest.fail "S1 must be purgeable"
  | Some plan ->
      check_int "two steps" 2 (List.length plan.Chained_purge.steps);
      let step1 = List.nth plan.Chained_purge.steps 0 in
      let step2 = List.nth plan.Chained_purge.steps 1 in
      check_string "first collects from S2" "S2" step1.Chained_purge.target;
      check_string "then from S3" "S3" step2.Chained_purge.target;
      check_string "S3 pinned by S2.C" "S2"
        (List.hd step2.Chained_purge.pins).Chained_purge.source

let test_chained_purge_derive_fails_when_unreachable () =
  let schemes = Scheme.Set.of_list [ Scheme.of_attrs s2 [ "B" ] ] in
  check_bool "no plan without S3 punctuations" true
    (Chained_purge.derive names path_preds schemes ~root:"S1" = None)

let test_fig3_required_punctuations () =
  (* t = (a1,b1) in S1; Υ_S2 = {(b1,c1), (b1,c2), (b2,c9)}; the paper's
     P_t[S2] pins b1 on B and P_t[S3] pins {c1, c2} on C. *)
  let schemes =
    Scheme.Set.of_list [ Scheme.of_attrs s2 [ "B" ]; Scheme.of_attrs s3 [ "C" ] ]
  in
  let plan = Option.get (Chained_purge.derive names path_preds schemes ~root:"S1") in
  let states = function
    | "S2" ->
        Relation.make s2 [ tuple s2 [ 1; 10 ]; tuple s2 [ 1; 11 ]; tuple s2 [ 2; 99 ] ]
    | "S3" -> Relation.make s3 []
    | other -> Alcotest.fail ("unexpected state request: " ^ other)
  in
  let required =
    Chained_purge.required_punctuations plan ~states
      ~root_tuple:(tuple s1 [ 7; 1 ])
  in
  (match List.assoc "S2" required with
  | [ p ] -> check_string "P_t[S2]" "S2(1, *)" (Punctuation.to_string p)
  | ps -> Alcotest.failf "expected one punctuation for S2, got %d" (List.length ps));
  (match List.assoc "S3" required with
  | ps ->
      Alcotest.(check (list string))
        "P_t[S3] = c-values of joinable tuples"
        [ "S3(10, *)"; "S3(11, *)" ]
        (List.sort String.compare (List.map Punctuation.to_string ps)))

let test_tuple_purgeable_with_cover () =
  let schemes =
    Scheme.Set.of_list [ Scheme.of_attrs s2 [ "B" ]; Scheme.of_attrs s3 [ "C" ] ]
  in
  let plan = Option.get (Chained_purge.derive names path_preds schemes ~root:"S1") in
  let states = function
    | "S2" -> Relation.make s2 [ tuple s2 [ 1; 10 ] ]
    | "S3" -> Relation.make s3 []
    | _ -> assert false
  in
  let covered_full ~stream bindings =
    match stream, bindings with
    | "S2", [ (0, Value.Int 1) ] -> true
    | "S3", [ (0, Value.Int 10) ] -> true
    | _ -> false
  in
  let covered_partial ~stream bindings =
    match stream, bindings with
    | "S2", [ (0, Value.Int 1) ] -> true
    | _ -> false
  in
  let t = tuple s1 [ 7; 1 ] in
  check_bool "purgeable when chain covered" true
    (Chained_purge.tuple_purgeable plan
       ~joinable:(Chained_purge.joinable_in states) ~covered:covered_full
       ~root_tuple:t);
  check_bool "not purgeable when S3 missing" false
    (Chained_purge.tuple_purgeable plan
       ~joinable:(Chained_purge.joinable_in states) ~covered:covered_partial
       ~root_tuple:t)

let test_chained_purge_empty_chain_cut () =
  (* No joinable tuples in S2: nothing is required from S3. *)
  let schemes =
    Scheme.Set.of_list [ Scheme.of_attrs s2 [ "B" ]; Scheme.of_attrs s3 [ "C" ] ]
  in
  let plan = Option.get (Chained_purge.derive names path_preds schemes ~root:"S1") in
  let states = function
    | "S2" -> Relation.make s2 []
    | "S3" -> Relation.make s3 []
    | _ -> assert false
  in
  let required =
    Chained_purge.required_punctuations plan ~states ~root_tuple:(tuple s1 [ 7; 1 ])
  in
  check_int "S3 requires nothing" 0 (List.length (List.assoc "S3" required))

let test_chained_purge_multi_attr_scheme () =
  (* §4.2's worked purge: t=(a1,b1) from S1; S3's punctuations pin (C, A)
     pairs built from T_t[Υ_S2] and t itself. *)
  let plan =
    Option.get (Chained_purge.derive names triangle_preds fig8_schemes ~root:"S1")
  in
  let states = function
    | "S2" -> Relation.make s2 [ tuple s2 [ 1; 10 ]; tuple s2 [ 1; 11 ] ]
    | "S3" -> Relation.make s3 []
    | _ -> assert false
  in
  let required =
    Chained_purge.required_punctuations plan ~states ~root_tuple:(tuple s1 [ 7; 1 ])
  in
  let s3_puncts = List.assoc "S3" required in
  Alcotest.(check (list string))
    "pairs (c_i, a1)"
    [ "S3(10, 7)"; "S3(11, 7)" ]
    (List.sort String.compare (List.map Punctuation.to_string s3_puncts))

(* ------------------------------------------------------------------ *)
(* Checker (Theorems 2/4, plan safety, Figure 7) *)

let test_checker_fig5_safe () =
  let q = fig5_query () in
  check_bool "Tpg" true (Checker.is_safe ~method_:Checker.Tpg q);
  check_bool "Gpg" true (Checker.is_safe ~method_:Checker.Gpg_closure q);
  check_bool "Pg" true (Checker.is_safe ~method_:Checker.Pg q)

let test_checker_fig8_needs_generalization () =
  let q = fig8_query () in
  check_bool "plain PG misses it" false (Checker.is_safe ~method_:Checker.Pg q);
  check_bool "GPG catches it" true (Checker.is_safe ~method_:Checker.Gpg_closure q);
  check_bool "TPG catches it" true (Checker.is_safe ~method_:Checker.Tpg q)

let test_checker_report () =
  let q = fig5_query () in
  let report = Checker.check q in
  check_bool "safe" true report.Checker.safe;
  check_int "three streams" 3 (List.length report.Checker.streams);
  List.iter
    (fun (sr : Checker.stream_report) ->
      check_bool (sr.stream ^ " purgeable") true sr.purgeable;
      check_bool (sr.stream ^ " has plan") true (sr.purge_plan <> None);
      check_int (sr.stream ^ " unreached empty") 0 (List.length sr.unreached))
    report.Checker.streams

let test_checker_report_unsafe_names_unreached () =
  let schemes = Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ] ] in
  let q = triangle_query (Scheme.Set.of_list (Scheme.Set.schemes schemes)) in
  let report = Checker.check ~schemes q in
  check_bool "unsafe" false report.Checker.safe;
  let s3r = List.find (fun r -> r.Checker.stream = "S3") report.Checker.streams in
  check_bool "S3 cannot reach S2" true (List.mem "S2" s3r.Checker.unreached)

let test_fig7_plan_safety () =
  let q = fig5_query () in
  check_bool "single MJoin safe" true
    (Checker.plan_safe q (Plan.mjoin names));
  (* every binary tree is unsafe *)
  List.iter
    (fun plan ->
      check_bool (Plan.to_string plan ^ " unsafe") false (Checker.plan_safe q plan))
    (Query.Plan_enum.binary_plans names);
  (* the offending operator of Figure 7's tree is the lower one *)
  let fig7 = Plan.join [ Plan.join [ Plan.Leaf "S1"; Plan.Leaf "S2" ]; Plan.Leaf "S3" ] in
  (match Checker.unsafe_operators q fig7 with
  | [ op ] ->
      Alcotest.(check (list string))
        "lower operator" [ "S1"; "S2" ]
        (sorted_strings (Plan.leaves op))
  | ops -> Alcotest.failf "expected one unsafe operator, got %d" (List.length ops))

let test_checker_enumeration_oracle () =
  let q = fig5_query () in
  check_bool "enumeration agrees: safe" true
    (Checker.exists_safe_plan_by_enumeration q);
  let schemes = Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ] ] in
  check_bool "enumeration agrees: unsafe" false
    (Checker.exists_safe_plan_by_enumeration ~schemes q)

(* ------------------------------------------------------------------ *)
(* Witness (Theorem 1's construction) *)

let witness_query () =
  (* Unsafe: S3 has no scheme, so S1 and S2 cannot purge. *)
  let schemes =
    Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ]; Scheme.of_attrs s2 [ "B" ] ]
  in
  triangle_query schemes

let test_witness_exists_iff_unpurgeable () =
  let q = witness_query () in
  check_bool "witness against S1" true (Witness.build q ~root:"S1" <> None);
  let safe_q = fig5_query () in
  check_bool "no witness for purgeable stream" true
    (Witness.build safe_q ~root:"S1" = None)

let test_witness_trace_well_formed () =
  let q = witness_query () in
  let w = Option.get (Witness.build q ~root:"S1") in
  let trace = Witness.trace w ~rounds:5 in
  check_int "well-formed" 0
    (List.length (Streams.Trace.check ~schemes:(Cjq.scheme_set q) trace))

let test_witness_revivals_join_seed () =
  let q = witness_query () in
  let w = Option.get (Witness.build q ~root:"S1") in
  (* Brute-force the full join over seed + revivals: each revival round
     adds at least one new result. *)
  let count rounds =
    Workload.Synth.brute_force_results q (Witness.trace w ~rounds)
  in
  let c0 = count 0 and c1 = count 1 and c3 = count 3 in
  check_bool "seed joins" true (c0 >= 1);
  check_bool "each round adds results" true (c1 > c0 && c3 > c1)

let test_witness_unreachable_set () =
  let q = witness_query () in
  let w = Option.get (Witness.build q ~root:"S1") in
  check_bool "S3 is unreachable" true (List.mem "S3" (Witness.unreachable w))

(* ------------------------------------------------------------------ *)
(* Planner and cost model (§5.2) *)

let test_enumerate_safe_plans_fig5 () =
  let q = fig5_query () in
  let safe = Planner.enumerate_safe_plans q in
  check_int "only the single MJoin is safe" 1 (List.length safe);
  check_bool "it is the MJoin" true (Plan.equal (List.hd safe) (Plan.mjoin names))

let test_best_plan_fig5 () =
  let q = fig5_query () in
  match Planner.best_plan Cost_model.default_params q with
  | None -> Alcotest.fail "safe query must have a best plan"
  | Some (plan, cost) ->
      check_bool "best is the MJoin" true (Plan.equal plan (Plan.mjoin names));
      check_bool "finite cost" true (cost.Cost_model.total > 0.0)

let test_best_plan_unsafe_none () =
  let schemes = Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ] ] in
  let q = triangle_query schemes in
  check_bool "no plan for unsafe query" true
    (Planner.best_plan Cost_model.default_params q = None)

let test_best_plan_prefers_cheap_tree () =
  (* A chain where binary trees are safe: the DP should return a safe plan
     whose cost is no worse than the flat MJoin's. *)
  let q = Workload.Synth.chain_query ~n:4 () in
  match Planner.best_plan Cost_model.default_params q with
  | None -> Alcotest.fail "chain is safe"
  | Some (_, best) ->
      let mjoin_cost =
        Option.get
          (Cost_model.plan_cost Cost_model.default_params q
             (Plan.mjoin (Cjq.stream_names q)))
      in
      check_bool "best <= mjoin" true
        (best.Cost_model.total <= mjoin_cost.Cost_model.total +. 1e-9)

let test_plan_cost_none_for_unsafe_plan () =
  let q = fig5_query () in
  let tree = Plan.join [ Plan.join [ Plan.Leaf "S1"; Plan.Leaf "S2" ]; Plan.Leaf "S3" ] in
  check_bool "unsafe plan unranked" true
    (Cost_model.plan_cost Cost_model.default_params q tree = None)

let test_minimal_scheme_subset () =
  let q = fig8_query () in
  match Planner.minimal_scheme_subset q with
  | None -> Alcotest.fail "fig8 is safe"
  | Some minimal ->
      check_bool "still safe" true (Checker.is_safe ~schemes:minimal q);
      check_bool "not larger" true
        (Scheme.Set.cardinal minimal <= Scheme.Set.cardinal fig8_schemes);
      (* minimality: dropping any scheme breaks safety *)
      List.iter
        (fun sch ->
          let without =
            Scheme.Set.of_list
              (List.filter (fun s -> s != sch) (Scheme.Set.schemes minimal))
          in
          check_bool "dropping any breaks it" false
            (Checker.is_safe ~schemes:without q))
        (Scheme.Set.schemes minimal)

let test_all_minimal_scheme_subsets () =
  let q = fig5_query () in
  let minimals = Planner.all_minimal_scheme_subsets q in
  (* Figure 5's cycle needs all three schemes. *)
  check_int "exactly one minimal set" 1 (List.length minimals);
  check_int "of size three" 3 (Scheme.Set.cardinal (List.hd minimals))

let test_minimal_subset_none_when_unsafe () =
  let schemes = Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ] ] in
  let q = triangle_query schemes in
  check_bool "None" true (Planner.minimal_scheme_subset q = None)

let test_estimate_params_from_trace () =
  let q = Workload.Synth.cycle_query ~n:3 () in
  let rounds = 100 in
  let trace =
    Workload.Synth.round_trace q
      { Workload.Synth.default_trace_config with rounds }
  in
  let params = Cost_model.estimate_params q trace in
  (* three streams with equal shares of the data *)
  List.iter
    (fun s ->
      let st = List.assoc s params.Cost_model.stats in
      check_bool (s ^ " rate share ~ 1/6 of elements") true
        (st.Cost_model.rate > 10.0 && st.Cost_model.rate < 25.0);
      check_bool (s ^ " punctuates") true
        (st.Cost_model.punct_interval < float_of_int (List.length trace)))
    [ "S1"; "S2"; "S3" ];
  (* every key matches exactly once per atom: selectivity = 1/keys *)
  check_bool "selectivity ~ 1/rounds" true
    (Float.abs (params.Cost_model.selectivity -. (1.0 /. float_of_int rounds))
     < 0.002)

let test_estimate_params_empty_stream () =
  let q = fig5_query () in
  let params = Cost_model.estimate_params q [] in
  check_bool "falls back to defaults" true
    (Float.abs
       (params.Cost_model.selectivity
       -. Cost_model.default_params.Cost_model.selectivity)
    < 1e-9)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_explain_safe_dossier () =
  let e = Core.Explain.analyze (fig5_query ()) in
  check_bool "safe" true (Core.Explain.is_safe e);
  let text = Core.Explain.to_string e in
  check_bool "verdict" true (contains text "SAFE");
  check_bool "plan census" true (contains text "safe plans: 1 of 4");
  check_bool "cost choice" true (contains text "cost-model choice");
  check_bool "minimal schemes" true (contains text "minimal scheme subset");
  check_int "three graphs" 3 (List.length (Core.Explain.graphs_dot e))

let test_explain_unsafe_dossier () =
  let schemes =
    Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ]; Scheme.of_attrs s2 [ "B" ] ]
  in
  let e = Core.Explain.analyze (triangle_query schemes) in
  check_bool "unsafe" false (Core.Explain.is_safe e);
  let text = Core.Explain.to_string e in
  check_bool "verdict" true (contains text "UNSAFE");
  check_bool "witness summary" true (contains text "witness against")

(* ------------------------------------------------------------------ *)
(* Punctuation purgeability (§5.1) *)

let test_punct_purgeable_by_partners () =
  (* Figure 3 discussion: S2's punctuation pinning B = b1 is purgeable
     once S1 punctuates b1 on its own B. *)
  let p = Punctuation.of_bindings s2 [ ("B", Value.Int 1) ] in
  let schema_of = function
    | "S1" -> s1
    | "S2" -> s2
    | "S3" -> s3
    | _ -> assert false
  in
  let covered_yes ~stream bindings =
    stream = "S1" && bindings = [ (1, Value.Int 1) ]
  in
  let covered_no ~stream:_ _ = false in
  check_bool "droppable when partner punctuated" true
    (Punct_purge.punct_purgeable_by_partners ~preds:path_preds ~schema_of
       ~covered:covered_yes p);
  check_bool "kept otherwise" false
    (Punct_purge.punct_purgeable_by_partners ~preds:path_preds ~schema_of
       ~covered:covered_no p)

let test_watermarks_never_partner_purged () =
  let wm = Punctuation.watermark s2 "B" (Value.Int 10) in
  let schema_of = function "S1" -> s1 | "S2" -> s2 | _ -> s3 in
  check_bool "watermark kept even under a universal cover" false
    (Punct_purge.punct_purgeable_by_partners ~preds:path_preds ~schema_of
       ~covered:(fun ~stream:_ _ -> true)
       wm)

let test_scheme_purge_supported () =
  (* S2's B-scheme is purgeable only if S1 can punctuate B. *)
  let sch = Scheme.of_attrs s2 [ "B" ] in
  let with_support =
    Scheme.Set.of_list [ Scheme.of_attrs s1 [ "B" ]; sch ]
  in
  let without = Scheme.Set.of_list [ sch ] in
  check_bool "supported" true
    (Punct_purge.scheme_purge_supported ~preds:path_preds ~schemes:with_support sch);
  check_bool "unsupported" false
    (Punct_purge.scheme_purge_supported ~preds:path_preds ~schemes:without sch)

let test_lifespan_expiry () =
  let ls = { Punct_purge.ttl = 10 } in
  check_bool "young" false (Punct_purge.expired ~now:15 ~inserted_at:10 ls);
  check_bool "old" true (Punct_purge.expired ~now:25 ~inserted_at:10 ls)

let () =
  Alcotest.run "core"
    [
      ("block", [ Alcotest.test_case "basics" `Quick test_block_basics ]);
      ( "punctuation_graph",
        [
          Alcotest.test_case "binary join (3.1)" `Quick test_binary_join_pg;
          Alcotest.test_case "conjunctive predicates" `Quick test_binary_conjunctive_predicates;
          Alcotest.test_case "Figure 5 cycle" `Quick test_fig5_pg_cycle;
          Alcotest.test_case "edge provenance" `Quick test_fig5_edge_reasons;
          Alcotest.test_case "Figure 8 not SC" `Quick test_fig8_pg_not_strongly_connected;
          Alcotest.test_case "Figure 7 block level" `Quick test_fig7_block_level;
          Alcotest.test_case "internal predicates ignored" `Quick test_pg_ignores_internal_predicates;
        ] );
      ( "gpg",
        [
          Alcotest.test_case "Figure 8 SC" `Quick test_fig8_gpg_strongly_connected;
          Alcotest.test_case "Figure 9 generalized edge" `Quick test_fig9_generalized_edge;
          Alcotest.test_case "non-join punctuatable attr" `Quick test_gpg_rejects_non_join_punctuatable_attr;
          Alcotest.test_case "single-attr = PG" `Quick test_gpg_single_attr_matches_pg;
          Alcotest.test_case "reachability closure" `Quick test_gpg_reachable_closure;
          Alcotest.test_case "Figure 9 dot" `Quick test_gpg_to_dot_figure9;
        ] );
      ( "tpg",
        [
          Alcotest.test_case "Figure 10 trace" `Quick test_fig10_tpg_trace;
          Alcotest.test_case "unsafe stops" `Quick test_tpg_unsafe_stops;
          Alcotest.test_case "pure multi-attr pair" `Quick test_tpg_pure_multi_attr_pair;
        ] );
      ( "chained_purge",
        [
          Alcotest.test_case "derive path plan" `Quick test_chained_purge_derive_path;
          Alcotest.test_case "derive fails when unreachable" `Quick
            test_chained_purge_derive_fails_when_unreachable;
          Alcotest.test_case "Figure 3 required punctuations" `Quick
            test_fig3_required_punctuations;
          Alcotest.test_case "tuple purgeable" `Quick test_tuple_purgeable_with_cover;
          Alcotest.test_case "cut chain requires nothing" `Quick
            test_chained_purge_empty_chain_cut;
          Alcotest.test_case "multi-attr scheme (4.2)" `Quick
            test_chained_purge_multi_attr_scheme;
        ] );
      ( "checker",
        [
          Alcotest.test_case "Figure 5 safe (all methods)" `Quick test_checker_fig5_safe;
          Alcotest.test_case "Figure 8 needs generalization" `Quick
            test_checker_fig8_needs_generalization;
          Alcotest.test_case "report" `Quick test_checker_report;
          Alcotest.test_case "unsafe report" `Quick test_checker_report_unsafe_names_unreached;
          Alcotest.test_case "Figure 7 plan safety" `Quick test_fig7_plan_safety;
          Alcotest.test_case "enumeration oracle" `Quick test_checker_enumeration_oracle;
        ] );
      ( "witness",
        [
          Alcotest.test_case "exists iff unpurgeable" `Quick test_witness_exists_iff_unpurgeable;
          Alcotest.test_case "trace well-formed" `Quick test_witness_trace_well_formed;
          Alcotest.test_case "revivals join the seed" `Quick test_witness_revivals_join_seed;
          Alcotest.test_case "unreachable set" `Quick test_witness_unreachable_set;
        ] );
      ( "planner",
        [
          Alcotest.test_case "enumerate safe plans" `Quick test_enumerate_safe_plans_fig5;
          Alcotest.test_case "best plan (Figure 5)" `Quick test_best_plan_fig5;
          Alcotest.test_case "unsafe has none" `Quick test_best_plan_unsafe_none;
          Alcotest.test_case "prefers cheap tree" `Quick test_best_plan_prefers_cheap_tree;
          Alcotest.test_case "unsafe plan unranked" `Quick test_plan_cost_none_for_unsafe_plan;
          Alcotest.test_case "minimal scheme subset" `Quick test_minimal_scheme_subset;
          Alcotest.test_case "all minimal subsets" `Quick test_all_minimal_scheme_subsets;
          Alcotest.test_case "minimal subset of unsafe" `Quick test_minimal_subset_none_when_unsafe;
          Alcotest.test_case "estimate params from trace" `Quick test_estimate_params_from_trace;
          Alcotest.test_case "estimate params empty" `Quick test_estimate_params_empty_stream;
        ] );
      ( "explain",
        [
          Alcotest.test_case "safe dossier" `Quick test_explain_safe_dossier;
          Alcotest.test_case "unsafe dossier" `Quick test_explain_unsafe_dossier;
        ] );
      ( "punct_purge",
        [
          Alcotest.test_case "partner purging" `Quick test_punct_purgeable_by_partners;
          Alcotest.test_case "watermarks kept" `Quick test_watermarks_never_partner_purged;
          Alcotest.test_case "scheme support analysis" `Quick test_scheme_purge_supported;
          Alcotest.test_case "lifespan" `Quick test_lifespan_expiry;
        ] );
    ]
