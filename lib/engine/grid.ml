type part = { ops : Operator.t list; unreachable : string -> string list }

(* Every operator name with the operators carrying it, in first-seen
   order, tagged with the first part that holds it (whose diagnosis is
   every shard's: the shards compile one plan). *)
let by_name parts =
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun (op : Operator.t) ->
          match Hashtbl.find_opt groups op.name with
          | Some (p0, ops) -> Hashtbl.replace groups op.name (p0, op :: ops)
          | None ->
              Hashtbl.add groups op.name (p, [ op ]);
              order := op.name :: !order)
        p.ops)
    parts;
  List.rev_map (fun name -> (name, Hashtbl.find groups name)) !order

let row (name, (_, ops)) =
  ( name,
    Operator.sum_states (List.map (fun (op : Operator.t) -> op.state ()) ops)
  )

let breakdown parts = List.map row (by_name parts)

type t = {
  telemetry : Telemetry.t;
  watchdog : Obs.Watchdog.t option;
  exporter : Obs.Exporter.t option;
  registry : unit -> Obs.Registry.t;
  metrics : Metrics.t;
  watched : (string, unit) Hashtbl.t;  (** operators the watchdog watches *)
  mutable prev_gc : Gc.stat;
}

let start ?exporter ?watchdog ?registry ~label telemetry =
  if Telemetry.enabled telemetry then begin
    Telemetry.set_clock telemetry 0;
    Telemetry.emit telemetry (Obs.Event.Run_start { tick = 0; label })
  end;
  {
    telemetry;
    watchdog =
      (match watchdog with None -> Telemetry.watchdog telemetry | w -> w);
    exporter;
    registry =
      Option.value registry ~default:(fun () -> Telemetry.registry telemetry);
    metrics = Metrics.create ();
    watched = Hashtbl.create 8;
    prev_gc = Gc.quick_stat ();
  }

let metrics g = g.metrics

let observe g ~tick ~op ~size ~unreachable =
  match g.watchdog with
  | None -> ()
  | Some w -> (
      match Obs.Watchdog.observe w ~op ~tick ~size ~unreachable with
      | Some (a : Obs.Watchdog.alarm) when Telemetry.enabled g.telemetry ->
          Telemetry.emit g.telemetry
            (Obs.Event.Alarm
               {
                 tick = a.tick;
                 op = a.op;
                 slope = a.slope;
                 size = a.size;
                 unreachable = a.unreachable;
               })
      | _ -> ())

let watch g ~tick ~op ~size = observe g ~tick ~op ~size ~unreachable:[]

(* Deltas of the calling domain's [Gc.quick_stat] since the previous grid
   point: in OCaml 5 the counters are per domain, so a sharded run counts
   its driver's allocation, not the parked workers'. *)
let record_gc g =
  let s = Gc.quick_stat () in
  let p = g.prev_gc in
  g.prev_gc <- s;
  let words name f =
    Telemetry.incr ~by:(max 0 (int_of_float (f s -. f p))) g.telemetry name
  in
  let count name f = Telemetry.incr ~by:(max 0 (f s - f p)) g.telemetry name in
  words "gc_minor_words" (fun (st : Gc.stat) -> st.minor_words);
  words "gc_promoted_words" (fun st -> st.promoted_words);
  words "gc_major_words" (fun st -> st.major_words);
  count "gc_minor_collections" (fun (st : Gc.stat) -> st.minor_collections);
  count "gc_major_collections" (fun st -> st.major_collections);
  count "gc_compactions" (fun st -> st.compactions);
  Telemetry.set_gauge ~agg:Obs.Registry.Sum g.telemetry "gc_heap_words"
    s.heap_words

let record g ~final ~tick ~emitted parts =
  let groups = by_name parts in
  let rows = List.map row groups in
  let total = Operator.sum_states (List.map snd rows) in
  let data_state = total.data
  and punct_state = total.puncts
  and index_state = total.index
  and state_bytes = total.bytes in
  (if final then Metrics.flush else Metrics.force)
    g.metrics ~tick ~data_state ~punct_state ~index_state ~state_bytes
    ~emitted ();
  let tel = g.telemetry in
  if Telemetry.enabled tel then begin
    List.iter
      (fun (name, (st : Operator.state)) ->
        let set suffix v =
          Telemetry.set_gauge ~agg:Obs.Registry.Sum tel (name ^ "." ^ suffix) v
        in
        set "data_state" st.data;
        set "punct_state" st.puncts;
        set "index_state" st.index;
        set "state_bytes" st.bytes)
      rows;
    record_gc g;
    Telemetry.emit tel
      (Obs.Event.Sample
         { tick; data_state; punct_state; index_state; state_bytes; emitted })
  end;
  (* An operator's watchdog window opens at its first grid point holding a
     stored punctuation: before it nothing can have been purged, so growth
     is the punctuation lag filling, not a leak. An operator with a
     purge-unreachable input can leak from the start and is watched from
     the start. *)
  List.iter2
    (fun (_, ((p : part), _)) (name, (st : Operator.state)) ->
      let unreachable = p.unreachable name in
      if st.puncts > 0 || unreachable <> [] then
        Hashtbl.replace g.watched name ();
      if Hashtbl.mem g.watched name then
        observe g ~tick ~op:name ~size:st.data ~unreachable)
    groups rows

let sample g ~tick ~emitted parts = record g ~final:false ~tick ~emitted parts

let publish g ~tick =
  match g.exporter with
  | None -> ()
  | Some ex ->
      Obs.Exporter.publish ex (Obs.Openmetrics.render ~tick (g.registry ()))

let feed ?(start = 0) ~sample_every ~cap ~run ~point elements =
  let consumed = ref start in
  let buf = ref [] in
  let nbuf = ref 0 in
  let cut () =
    if !nbuf > 0 then begin
      let arr = Array.of_list (List.rev !buf) in
      buf := [];
      nbuf := 0;
      let base = !consumed in
      consumed := base + Array.length arr;
      run ~base arr;
      if !consumed mod sample_every = 0 then point ~tick:!consumed
    end
  in
  Seq.iter
    (fun element ->
      buf := element :: !buf;
      incr nbuf;
      if !nbuf >= cap || (!consumed + !nbuf) mod sample_every = 0 then cut ())
    elements;
  cut ();
  !consumed

let finish g ~tick ~emitted parts =
  record g ~final:true ~tick ~emitted parts;
  publish g ~tick;
  if Telemetry.enabled g.telemetry then
    Telemetry.emit g.telemetry (Obs.Event.Run_end { tick; emitted })

(* --- report ----------------------------------------------------------- *)

let series_json metrics =
  Obs.Json.List
    (List.map
       (fun (s : Metrics.sample) ->
         Obs.Json.Obj
           [
             ("tick", Obs.Json.Int s.tick);
             ("data_state", Obs.Json.Int s.data_state);
             ("punct_state", Obs.Json.Int s.punct_state);
             ("index_state", Obs.Json.Int s.index_state);
             ("state_bytes", Obs.Json.Int s.state_bytes);
             ("emitted", Obs.Json.Int s.emitted);
           ])
       (Metrics.samples metrics))

let sum_alists = function
  | [] -> []
  | first :: rest ->
      List.fold_left
        (List.map2 (fun (k, v) (_, v') -> (k, v + v')))
        first rest

let report ~meta ~registry ~alarms parts metrics =
  let operators =
    List.map
      (fun ((name, ((p : part), ops)) as group) ->
        let _, (st : Operator.state) = row group in
        {
          Obs.Report.name;
          inputs = (List.hd ops : Operator.t).input_names;
          unreachable_inputs = p.unreachable name;
          stats =
            sum_alists
              (List.map
                 (fun (op : Operator.t) -> Operator.stats_to_alist (op.stats ()))
                 ops);
          state =
            [
              ("data", st.data);
              ("puncts", st.puncts);
              ("index", st.index);
              ("bytes", st.bytes);
            ];
        })
      (by_name parts)
  in
  { Obs.Report.meta; operators; registry; series = series_json metrics; alarms }
