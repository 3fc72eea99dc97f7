module Scheme = Streams.Scheme
module Cjq = Query.Cjq
module Plan = Query.Plan

type method_ = Pg | Gpg_closure | Tpg

type stream_report = {
  stream : string;
  purgeable : bool;
  purge_plan : Chained_purge.plan option;
  unreached : string list;
}

type report = {
  safe : bool;
  decided_by : method_;
  pg : Punctuation_graph.t;
  gpg : Gpg.t;
  tpg : Tpg.t;
  streams : stream_report list;
}

let schemes_of ?schemes query =
  match schemes with Some s -> s | None -> Cjq.scheme_set query

let is_safe ?(method_ = Tpg) ?schemes query =
  let schemes = schemes_of ?schemes query in
  match method_ with
  | Pg ->
      Punctuation_graph.is_strongly_connected
        (Punctuation_graph.of_query ~schemes query)
  | Gpg_closure -> Gpg.is_strongly_connected (Gpg.of_query ~schemes query)
  | Tpg -> Tpg.is_safe (Tpg.of_query ~schemes query)

let stream_purgeable ?schemes query name =
  let schemes = schemes_of ?schemes query in
  Gpg.reaches_all (Gpg.of_query ~schemes query) (Block.singleton name)

let check ?(method_ = Tpg) ?schemes query =
  let schemes = schemes_of ?schemes query in
  let names = Cjq.stream_names query in
  let preds = Cjq.predicates query in
  let pg = Punctuation_graph.of_query ~schemes query in
  let gpg = Gpg.of_query ~schemes query in
  let tpg = Tpg.of_query ~schemes query in
  let plans = Chained_purge.derive_all names preds schemes in
  let streams =
    List.map
      (fun stream ->
        let reached = Gpg.reachable gpg (Block.singleton stream) in
        let unreached =
          List.filter
            (fun s -> not (List.mem (Block.singleton s) reached))
            names
        in
        let purgeable = unreached = [] in
        let purge_plan = if purgeable then List.assoc stream plans else None in
        { stream; purgeable; purge_plan; unreached })
      names
  in
  let safe = is_safe ~method_ ~schemes query in
  { safe; decided_by = method_; pg; gpg; tpg; streams }

(* --- outer/anti variants ----------------------------------------------- *)

type outer_report = {
  kind : Cjq.join_kind;
  preserved : string list;
  emission_ok : bool;
  bounded : bool;
  safe : bool;
}

let preserved_streams query kind =
  match (Cjq.stream_names query, kind) with
  | _, Cjq.Inner -> []
  | [ left; _ ], (Cjq.Left_outer | Cjq.Anti) -> [ left ]
  | [ _; right ], Cjq.Right_outer -> [ right ]
  | [ left; right ], Cjq.Full_outer -> [ left; right ]
  | _ ->
      invalid_arg "Checker.preserved_streams: outer kinds are binary queries"

let check_outer ?schemes query kind =
  if kind = Cjq.Inner then
    invalid_arg "Checker.check_outer: use check for inner joins";
  if Cjq.n_streams query <> 2 then
    invalid_arg "Checker.check_outer: outer kinds are binary queries";
  let schemes = schemes_of ?schemes query in
  let preserved = preserved_streams query kind in
  (* Emission: a preserved side's unmatched tuples are released exactly
     when partner punctuations cover their join values — the same GPG
     reachability (Theorem 3) that proves the side's state purgeable
     proves the release eventually fires. Boundedness is the plain
     inner-join guarantee (every state purgeable). *)
  let emission_ok =
    List.for_all (fun s -> stream_purgeable ~schemes query s) preserved
  in
  let bounded = is_safe ~schemes query in
  { kind; preserved; emission_ok; bounded; safe = emission_ok && bounded }

let outer_variants ?schemes query =
  List.map
    (fun kind -> check_outer ?schemes query kind)
    [ Cjq.Left_outer; Cjq.Right_outer; Cjq.Full_outer; Cjq.Anti ]

let is_safe_kind ?schemes query =
  match Cjq.kind query with
  | Cjq.Inner -> is_safe ?schemes query
  | kind -> (check_outer ?schemes query kind).safe

let pp_outer_report ppf r =
  Fmt.pf ppf "%-6s preserved={%a} emission=%s bounded=%s -> %s"
    (Cjq.kind_to_string r.kind)
    Fmt.(list ~sep:(any ",") string)
    r.preserved
    (if r.emission_ok then "provable" else "unprovable")
    (if r.bounded then "yes" else "no")
    (if r.safe then "SAFE" else "UNSAFE")

let operator_purgeable ~blocks preds schemes =
  Gpg.is_strongly_connected (Gpg.of_blocks blocks preds schemes)

let unsafe_operators ?schemes query plan =
  let schemes = schemes_of ?schemes query in
  let preds = Cjq.predicates query in
  Plan.validate plan query;
  List.filter
    (fun op ->
      let blocks = List.map Block.make (Plan.inputs_of_operator op) in
      not (operator_purgeable ~blocks preds schemes))
    (Plan.operators plan)

let plan_safe ?schemes query plan = unsafe_operators ?schemes query plan = []

let exists_safe_plan_by_enumeration ?schemes query =
  let schemes = schemes_of ?schemes query in
  List.exists
    (fun plan -> plan_safe ~schemes query plan)
    (Query.Plan_enum.all_plans (Cjq.stream_names query))

(* --- multi-query shareability ----------------------------------------- *)

type member_report = {
  qid : string;
  folded_plan : Plan.t;
  folded_safe : bool;
  mixed_schemes : Scheme.Set.t;
}

type share_report = {
  streams : string list;
  intersection : Scheme.Set.t;
  sub_purgeable : bool;
  member_reports : member_report list;
  shareable_for : string list;
}

let scheme_intersection queries ~streams =
  match queries with
  | [] -> invalid_arg "Checker.scheme_intersection: no queries"
  | first :: rest ->
      let declared q s =
        Streams.Stream_def.schemes (Cjq.def q s)
      in
      List.concat_map
        (fun s ->
          List.filter
            (fun sch ->
              List.for_all
                (fun q -> List.exists (Scheme.equal sch) (declared q s))
                rest)
            (declared first s))
        streams
      |> Scheme.Set.of_list

(* A query's plan folded onto the shared block: the block as one flat
   MJoin, joined with the query's remaining streams in a second flat
   operator. If the query is fully covered the block alone is the plan. *)
let folded_plan query ~streams =
  let rest =
    List.filter (fun s -> not (List.mem s streams)) (Cjq.stream_names query)
  in
  match rest with
  | [] -> Plan.mjoin streams
  | _ -> Plan.join (Plan.mjoin streams :: List.map (fun s -> Plan.Leaf s) rest)

let shareable ~members ~streams =
  (match members with
  | [] | [ _ ] -> invalid_arg "Checker.shareable: need at least two members"
  | _ -> ());
  List.iter
    (fun (_, q) ->
      if Cjq.kind q <> Cjq.Inner then
        invalid_arg "Checker.shareable: only Inner queries can share")
    members;
  let streams = List.sort_uniq String.compare streams in
  let intersection =
    scheme_intersection (List.map snd members) ~streams
  in
  (* The shared operator runs once for everyone, so it may only purge on
     punctuations every subscriber is guaranteed: Corollary 2 under the
     scheme-set intersection. *)
  let sub_purgeable =
    let _, q0 = List.hd members in
    let sub = Cjq.restrict q0 streams in
    operator_purgeable
      ~blocks:(List.map Block.singleton streams)
      (Cjq.predicates sub) intersection
  in
  let member_reports =
    List.map
      (fun (qid, q) ->
        (* Mixed scheme view of this member: the shared streams contribute
           only intersection schemes (the shared state purges under those
           alone), the member's private streams keep their own. *)
        let mixed =
          List.fold_left Scheme.Set.add
            (Scheme.Set.of_list
               (List.concat_map
                  (fun s ->
                    if List.mem s streams then []
                    else Streams.Stream_def.schemes (Cjq.def q s))
                  (Cjq.stream_names q)))
            (Scheme.Set.schemes intersection)
        in
        let folded_plan = folded_plan q ~streams in
        let folded_safe =
          sub_purgeable && plan_safe ~schemes:mixed q folded_plan
        in
        { qid; folded_plan; folded_safe; mixed_schemes = mixed })
      members
  in
  let shareable_for =
    List.filter_map
      (fun m -> if m.folded_safe then Some m.qid else None)
      member_reports
  in
  (* Sharing pays only when at least two subscribers can ride the block. *)
  let shareable_for = if List.length shareable_for >= 2 then shareable_for else [] in
  { streams; intersection; sub_purgeable; member_reports; shareable_for }

let pp_method ppf = function
  | Pg -> Fmt.string ppf "punctuation graph (Theorem 2)"
  | Gpg_closure -> Fmt.string ppf "GPG closure (Theorem 4)"
  | Tpg -> Fmt.string ppf "TPG transformation (Theorem 5)"

let pp_report ppf (r : report) =
  let pp_stream ppf s =
    if s.purgeable then
      Fmt.pf ppf "@[<v2>%s: purgeable@,%a@]" s.stream
        (Fmt.option Chained_purge.pp_plan)
        s.purge_plan
    else
      Fmt.pf ppf "%s: NOT purgeable (cannot reach %a)" s.stream
        Fmt.(list ~sep:comma string)
        s.unreached
  in
  Fmt.pf ppf "@[<v>verdict: %s (decided by %a)@,%a@]"
    (if r.safe then "SAFE" else "UNSAFE")
    pp_method r.decided_by
    (Fmt.list ~sep:Fmt.cut pp_stream)
    r.streams
