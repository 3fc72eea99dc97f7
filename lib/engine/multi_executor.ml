open Relational
module Element = Streams.Element
module Scheme = Streams.Scheme
module Stream_def = Streams.Stream_def
module Cjq = Query.Cjq
module Plan = Query.Plan
module Query_registry = Query.Query_registry
module Planner = Core.Planner
module Checker = Core.Checker

(* One compiled shared building block: a whole Executor tree (one join
   state, one punctuation store) whose root output doubles as a pseudo
   input stream for the subscribers' residual trees. *)
type group = {
  gid : string;
  gstreams : string list;
  gtree : Executor.compiled;
  pseudo : string;  (** stream name of the pseudo output *)
  pseudo_def : Stream_def.t;
}

type qunit = {
  qid : string;
  gid : string option;  (** subscribed shared group, if any *)
  qtree : Executor.compiled option;
      (** the residual (or independent) tree; [None] when the shared
          block covers the whole query *)
}

type t = {
  reg : Query_registry.t;
  mplan : Planner.multi_plan;
  groups : group list;
  qunits : qunit list;
  config : Executor.Config.t;
  defs : Stream_def.t list;  (** union input surface *)
}

let plan t = t.mplan
let registry t = t.reg
let stream_defs t = t.defs

let compile_group config (g : Planner.shared_group) reg =
  let q0 = Query_registry.find reg (fst (List.hd g.Planner.group_members)) in
  let sub = Cjq.restrict q0 g.Planner.streams in
  (* The shared operator's declared schemes are the *intersection*: it
     must purge only on punctuations every subscriber guarantees. *)
  let intersection = g.Planner.report.Checker.intersection in
  let defs_sub =
    List.map
      (fun s ->
        Stream_def.make (Cjq.schema_of sub s)
          (Scheme.Set.for_stream intersection s))
      g.Planner.streams
  in
  let sub_query = Cjq.make defs_sub (Cjq.predicates sub) in
  let gconfig =
    {
      config with
      Executor.Config.op_prefix = "shared:" ^ g.Planner.gid ^ "/";
      contract = None;
    }
  in
  let gtree =
    Executor.compile ~config:gconfig sub_query (Plan.mjoin g.Planner.streams)
  in
  let out_schema = Executor.output_schema gtree in
  let pseudo = Schema.stream_name out_schema in
  {
    gid = g.Planner.gid;
    gstreams = g.Planner.streams;
    gtree;
    pseudo;
    pseudo_def = Stream_def.make out_schema (Executor.derived_schemes gtree);
  }

(* The subscriber's residual query: the shared block contracted to one
   pseudo stream. Atoms internal to the block were applied there; atoms
   crossing the boundary re-anchor their shared endpoint on the pseudo
   stream under its qualified column name. *)
let residual_query query (g : group) rest =
  let atoms =
    List.filter_map
      (fun a ->
        let s1, s2 = Predicate.streams_of a in
        let in1 = List.mem s1 g.gstreams and in2 = List.mem s2 g.gstreams in
        if in1 && in2 then None
        else if (not in1) && not in2 then Some a
        else
          let sin, ain, sout, aout =
            if in1 then (s1, Predicate.attr_on a s1, s2, Predicate.attr_on a s2)
            else (s2, Predicate.attr_on a s2, s1, Predicate.attr_on a s1)
          in
          Some
            (Predicate.atom g.pseudo
               (Schema.qualify_attr ~origin:sin ain)
               sout aout))
      (Cjq.predicates query)
  in
  let defs = g.pseudo_def :: List.map (Cjq.def query) rest in
  Cjq.make defs atoms

let create ?(config = Executor.Config.default) ?(share = true) reg =
  let entries = Query_registry.entries reg in
  let defs =
    Cjq.union_defs (List.map (fun e -> e.Query_registry.query) entries)
  in
  let mplan = Planner.plan_shared ~share reg in
  let groups = List.map (fun g -> compile_group config g reg) mplan.groups in
  let group_of gid = List.find (fun (g : group) -> g.gid = gid) groups in
  let qunits =
    List.map
      (fun (qid, assignment) ->
        let query = Query_registry.find reg qid in
        let qconfig =
          {
            config with
            Executor.Config.op_prefix = qid ^ "/";
            contract = None;
          }
        in
        match assignment with
        | Planner.Independent plan ->
            {
              qid;
              gid = None;
              qtree = Some (Executor.compile ~config:qconfig query plan);
            }
        | Planner.Shared { gid; rest = [] } ->
            { qid; gid = Some gid; qtree = None }
        | Planner.Shared { gid; rest } ->
            let g = group_of gid in
            let rq = residual_query query g rest in
            let rplan = Plan.mjoin (g.pseudo :: rest) in
            {
              qid;
              gid = Some gid;
              qtree = Some (Executor.compile ~config:qconfig rq rplan);
            })
      mplan.assignments
  in
  { reg; mplan; groups; qunits; config; defs }

let of_plan ?(config = Executor.Config.default) ~qid query plan =
  {
    reg = Query_registry.create [ { Query_registry.qid; query } ];
    mplan =
      {
        Planner.groups = [];
        assignments = [ (qid, Planner.Independent plan) ];
      };
    groups = [];
    qunits =
      [
        { qid; gid = None; qtree = Some (Executor.compile ~config query plan) };
      ];
    config;
    defs = Cjq.stream_defs query;
  }

(* --- feeding ----------------------------------------------------------- *)

(* One step of the DAG: every shared group consumes [feed_group]'s share
   of the input, then each query's tree takes its direct input followed
   by its group's outputs as one more run and, at end of input, flushes.
   The order within every input stream is kept, which is all a join's
   answer depends on. A fully covered query answers with its group's
   outputs as they are. *)
let step t ~feed_group ~feed_direct ~flush_units =
  let from_groups =
    List.map (fun (g : group) -> (g.gid, feed_group g)) t.groups
  in
  List.filter_map
    (fun u ->
      let shared_in =
        match u.gid with Some gid -> List.assoc gid from_groups | None -> []
      in
      let outs =
        match u.qtree with
        | None -> shared_in
        | Some tree ->
            let direct = feed_direct tree in
            let via_shared =
              if shared_in = [] then []
              else Executor.feed_batch tree (Array.of_list shared_in)
            in
            let tail = if flush_units then Executor.flush_tree tree else [] in
            List.concat [ direct; via_shared; tail ]
      in
      if outs = [] then None else Some (u.qid, outs))
    t.qunits

(* Each tree takes the whole run ([Executor.feed_batch] skips streams
   outside its leaves). *)
let feed_batch t arr =
  step t
    ~feed_group:(fun g -> Executor.feed_batch g.gtree arr)
    ~feed_direct:(fun tree -> Executor.feed_batch tree arr)
    ~flush_units:false

let flush t =
  (* Shared trees drain first: their flush outputs (results and final
     punctuations) still have to travel through the subscribers' residual
     trees before those flush themselves. *)
  step t
    ~feed_group:(fun g -> Executor.flush_tree g.gtree)
    ~feed_direct:(fun _ -> [])
    ~flush_units:true

(* --- state ------------------------------------------------------------- *)

let all_trees t =
  List.map (fun (g : group) -> ("shared:" ^ g.gid, g.gtree)) t.groups
  @ List.filter_map
      (fun u -> Option.map (fun tree -> (u.qid, tree)) u.qtree)
      t.qunits

let total_state_bytes t =
  List.fold_left
    (fun acc (_, tree) -> acc + Executor.total_state_bytes tree)
    0 (all_trees t)

let state_breakdown t =
  List.map
    (fun (owner, tree) -> (owner, Executor.state_breakdown tree))
    (all_trees t)

(* --- running ----------------------------------------------------------- *)

type query_result = {
  outputs : Element.t list;
  emitted : int;
  hash : string;
}

type result = {
  per_query : (string * query_result) list;
  metrics : Metrics.t;
  consumed : int;
  emitted : int;
}

let parts t = List.map (fun (_, tree) -> Executor.part tree) (all_trees t)

let operators t =
  List.concat_map (fun (_, c) -> Executor.operators ~c) (all_trees t)

let register_sources ct t =
  List.iter (fun (_, tree) -> Executor.register_sources ct tree) (all_trees t)

let answer outputs =
  {
    outputs;
    emitted = List.length (List.filter Element.is_data outputs);
    hash = Executor.output_hash outputs;
  }

let run ?(sample_every = 100) ?(label = "multi-run") ?exporter t elements =
  let telemetry = t.config.Executor.Config.telemetry in
  let grid = Grid.start ?exporter ~sample_every ~label telemetry in
  let parts = parts t in
  let emitted = ref 0 in
  let acc = Hashtbl.create 8 in
  List.iter (fun u -> Hashtbl.replace acc u.qid (ref [])) t.qunits;
  let accept per_query =
    List.iter
      (fun (qid, outs) ->
        let outputs = Hashtbl.find acc qid in
        List.iter
          (fun e ->
            if Element.is_data e then incr emitted;
            outputs := e :: !outputs)
          outs)
      per_query
  in
  let consumed =
    Grid.feed ~sample_every ~cap:1 elements
      ~run:(fun ~base arr ->
        Telemetry.set_clock telemetry (base + 1);
        accept (feed_batch t arr))
      ~point:(fun ~tick ->
        Grid.sample grid ~tick ~emitted:!emitted parts;
        Grid.publish grid ~tick)
  in
  accept (flush t);
  Grid.finish grid ~tick:consumed ~emitted:!emitted parts;
  {
    per_query =
      List.map
        (fun u -> (u.qid, answer (List.rev !(Hashtbl.find acc u.qid))))
        t.qunits;
    metrics = Grid.metrics grid;
    consumed;
    emitted = !emitted;
  }

(* --- report ------------------------------------------------------------ *)

let answers_meta t per_query =
  let json_list f l = Obs.Json.List (List.map f l) in
  [
    ( "queries",
      json_list
        (fun (qid, (qr : query_result)) ->
          Obs.Json.Obj
            [
              ("qid", Obs.Json.String qid);
              ("emitted", Obs.Json.Int qr.emitted);
              ("hash", Obs.Json.String qr.hash);
            ])
        per_query );
    ( "shared_groups",
      json_list
        (fun (g : group) ->
          Obs.Json.Obj
            [
              ("gid", Obs.Json.String g.gid);
              ("streams", json_list (fun s -> Obs.Json.String s) g.gstreams);
            ])
        t.groups );
  ]

let report ?(meta = []) t (r : result) =
  let telemetry = t.config.Executor.Config.telemetry in
  Grid.report
    ~meta:
      (meta
      @ [
          ("consumed", Obs.Json.Int r.consumed);
          ("emitted", Obs.Json.Int r.emitted);
        ]
      @ answers_meta t r.per_query)
    ~registry:(Telemetry.registry telemetry)
    ~alarms:(Telemetry.alarms telemetry)
    (parts t) r.metrics
