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
  reads : string list;  (** raw streams fed directly into [qtree] *)
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

let union_defs queries =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun q ->
      List.filter_map
        (fun def ->
          let name = Stream_def.name def in
          match Hashtbl.find_opt seen name with
          | Some schema ->
              if not (Schema.equal schema (Stream_def.schema def)) then
                invalid_arg
                  (Printf.sprintf
                     "Multi_executor: stream %S declared with conflicting \
                      schemas"
                     name);
              None
          | None ->
              Hashtbl.add seen name (Stream_def.schema def);
              Some def)
        (Cjq.stream_defs q))
    queries

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
    union_defs (List.map (fun e -> e.Query_registry.query) entries)
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
              reads = Cjq.stream_names query;
            }
        | Planner.Shared { gid; rest = [] } ->
            { qid; gid = Some gid; qtree = None; reads = [] }
        | Planner.Shared { gid; rest } ->
            let g = group_of gid in
            let rq = residual_query query g rest in
            let rplan = Plan.mjoin (g.pseudo :: rest) in
            {
              qid;
              gid = Some gid;
              qtree = Some (Executor.compile ~config:qconfig rq rplan);
              reads = rest;
            })
      mplan.assignments
  in
  { reg; mplan; groups; qunits; config; defs }

(* --- feeding ----------------------------------------------------------- *)

let unit_outputs t ~from_groups ~feed_direct ~flush_units =
  List.filter_map
    (fun u ->
      let shared_in =
        match u.gid with Some gid -> List.assoc gid from_groups | None -> []
      in
      let outs =
        match u.qtree with
        | None -> shared_in
        | Some tree ->
            let direct = feed_direct u tree in
            let via_shared =
              List.concat_map (Executor.feed_element tree) shared_in
            in
            let tail = if flush_units then Executor.flush_tree tree else [] in
            direct @ via_shared @ tail
      in
      if outs = [] then None else Some (u.qid, outs))
    t.qunits

let feed_element t e =
  let stream = Element.stream_name e in
  let from_groups =
    List.map
      (fun (g : group) ->
        ( g.gid,
          if List.mem stream g.gstreams then Executor.feed_element g.gtree e
          else [] ))
      t.groups
  in
  unit_outputs t ~from_groups
    ~feed_direct:(fun u tree ->
      if List.mem stream u.reads then Executor.feed_element tree e else [])
    ~flush_units:false

let flush t =
  (* Shared trees drain first: their flush outputs (results and final
     punctuations) still have to travel through the subscribers' residual
     trees before those flush themselves. *)
  let from_groups =
    List.map
      (fun (g : group) -> (g.gid, Executor.flush_tree g.gtree))
      t.groups
  in
  unit_outputs t ~from_groups
    ~feed_direct:(fun _ _ -> [])
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

let run ?(sample_every = 100) ?(label = "multi-run") ?exporter t elements =
  let telemetry = t.config.Executor.Config.telemetry in
  let grid = Grid.start ?exporter ~sample_every ~label telemetry in
  let parts = parts t in
  let consumed = ref 0 in
  let emitted = ref 0 in
  let acc : (string, Element.t list ref * int ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun u -> Hashtbl.replace acc u.qid (ref [], ref 0))
    t.qunits;
  let accept per_query =
    List.iter
      (fun (qid, outs) ->
        let outputs, count = Hashtbl.find acc qid in
        List.iter
          (fun e ->
            if Element.is_data e then begin
              incr count;
              incr emitted
            end;
            outputs := e :: !outputs)
          outs)
      per_query
  in
  Seq.iter
    (fun element ->
      incr consumed;
      Telemetry.set_clock telemetry !consumed;
      accept (feed_element t element);
      if !consumed mod sample_every = 0 then begin
        Grid.sample grid ~tick:!consumed ~emitted:!emitted parts;
        Grid.publish grid ~tick:!consumed
      end)
    elements;
  accept (flush t);
  Grid.finish grid ~tick:!consumed ~emitted:!emitted parts;
  let per_query =
    List.map
      (fun u ->
        let outputs, count = Hashtbl.find acc u.qid in
        let outputs = List.rev !outputs in
        ( u.qid,
          {
            outputs;
            emitted = !count;
            hash = Executor.output_hash outputs;
          } ))
      t.qunits
  in
  {
    per_query;
    metrics = Grid.metrics grid;
    consumed = !consumed;
    emitted = !emitted;
  }

(* --- report ------------------------------------------------------------ *)

let report ?(meta = []) t (r : result) =
  let queries_meta =
    Obs.Json.List
      (List.map
         (fun (qid, (qr : query_result)) ->
           Obs.Json.Obj
             [
               ("qid", Obs.Json.String qid);
               ("emitted", Obs.Json.Int qr.emitted);
               ("hash", Obs.Json.String qr.hash);
             ])
         r.per_query)
  in
  let groups_meta =
    Obs.Json.List
      (List.map
         (fun (g : group) ->
           Obs.Json.Obj
             [
               ("gid", Obs.Json.String g.gid);
               ( "streams",
                 Obs.Json.List
                   (List.map (fun s -> Obs.Json.String s) g.gstreams) );
             ])
         t.groups)
  in
  let telemetry = t.config.Executor.Config.telemetry in
  Grid.report
    ~meta:
      (meta
      @ [
          ("consumed", Obs.Json.Int r.consumed);
          ("emitted", Obs.Json.Int r.emitted);
          ("queries", queries_meta);
          ("shared_groups", groups_meta);
        ])
    ~registry:(Telemetry.registry telemetry)
    ~alarms:(Telemetry.alarms telemetry)
    (parts t) r.metrics

(* --- sharded driving --------------------------------------------------- *)

type sharded_result = {
  s_per_query : (string * query_result) list;
  s_consumed : int;
  s_emitted : int;
  s_shards : int;
}

type message = Batch of (int * Element.t) array | Stop of int

type worker_state = {
  exec : t;
  queue : message Spsc.t;
  (* (seq, rank, element) per query, newest first; read by the driver
     only after Domain.join establishes happens-before *)
  recorded : (string, (int * int * Element.t) list ref) Hashtbl.t;
  mutable rank : int;
}

let worker (w : worker_state) =
  let record seq per_query =
    List.iter
      (fun (qid, outs) ->
        let cell = Hashtbl.find w.recorded qid in
        List.iter
          (fun e ->
            cell := (seq, w.rank, e) :: !cell;
            w.rank <- w.rank + 1)
          outs)
      per_query
  in
  let rec loop () =
    match Spsc.pop_wait w.queue with
    | `Closed -> ()
    | `Item (Batch arr) ->
        Array.iter (fun (seq, e) -> record seq (feed_element w.exec e)) arr;
        loop ()
    | `Item (Stop final) -> record (final + 1) (flush w.exec)
  in
  loop ()

let run_sharded ?(config = Executor.Config.default) ?(share = true)
    ?(batch_cap = 256) ~shards registry elements =
  if shards <= 0 then
    invalid_arg "Multi_executor.run_sharded: shards must be positive";
  let entries = Query_registry.entries registry in
  let queries = List.map (fun e -> e.Query_registry.query) entries in
  let router = Shard_router.create_multi ~shards queries in
  if not (Shard_router.sound_for_shared router ~subscribers:queries) then
    invalid_arg
      "Multi_executor.run_sharded: outer/anti queries require exact \
       partitioning of their streams";
  (* Worker DAGs run uninstrumented: per-shard telemetry merging is the
     single-query Parallel_executor's concern; the multi driver's
     observability story is the sequential run's. *)
  let wconfig =
    {
      config with
      Executor.Config.telemetry = Telemetry.null;
      contract = None;
    }
  in
  let mk_worker () =
    let exec = create ~config:wconfig ~share registry in
    let recorded = Hashtbl.create 8 in
    List.iter
      (fun e -> Hashtbl.replace recorded e.Query_registry.qid (ref []))
      entries;
    { exec; queue = Spsc.create ~capacity:64; recorded; rank = 0 }
  in
  let workers = Array.init shards (fun _ -> mk_worker ()) in
  let domains =
    Array.map (fun w -> Domain.spawn (fun () -> worker w)) workers
  in
  let push k msg =
    match Spsc.push workers.(k).queue msg with
    | `Ok -> ()
    | `Closed -> failwith "Multi_executor.run_sharded: worker died"
  in
  let bufs = Array.make shards [] in
  let buf_len = Array.make shards 0 in
  let flush_buf k =
    if buf_len.(k) > 0 then begin
      push k (Batch (Array.of_list (List.rev bufs.(k))));
      bufs.(k) <- [];
      buf_len.(k) <- 0
    end
  in
  let send k entry =
    bufs.(k) <- entry :: bufs.(k);
    buf_len.(k) <- buf_len.(k) + 1;
    if buf_len.(k) >= max 1 batch_cap then flush_buf k
  in
  let consumed = ref 0 in
  Seq.iter
    (fun e ->
      incr consumed;
      match Shard_router.route_element router e with
      | Shard_router.Local k -> send k (!consumed, e)
      | Shard_router.Broadcast ->
          for k = 0 to shards - 1 do
            send k (!consumed, e)
          done)
    elements;
  for k = 0 to shards - 1 do
    flush_buf k;
    push k (Stop !consumed)
  done;
  Array.iter Domain.join domains;
  let s_per_query =
    List.map
      (fun entry ->
        let qid = entry.Query_registry.qid in
        let outputs =
          Array.to_list workers
          |> List.concat_map (fun w ->
                 List.rev_map
                   (fun (seq, rank, e) -> (seq, w.rank, rank, e))
                   !(Hashtbl.find w.recorded qid))
          |> List.sort compare
          |> List.map (fun (_, _, _, e) -> e)
        in
        let emitted =
          List.length (List.filter Element.is_data outputs)
        in
        (qid, { outputs; emitted; hash = Executor.output_hash outputs }))
      entries
  in
  {
    s_per_query;
    s_consumed = !consumed;
    s_emitted =
      List.fold_left
        (fun acc (_, (qr : query_result)) -> acc + qr.emitted)
        0 s_per_query;
    s_shards = shards;
  }
