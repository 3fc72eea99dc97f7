type operator_entry = {
  name : string;
  inputs : string list;
  unreachable_inputs : string list;
  stats : (string * int) list;
  state : (string * int) list;
}

type t = {
  meta : (string * Json.t) list;
  operators : operator_entry list;
  registry : Registry.t;
  series : Json.t;
  alarms : Watchdog.alarm list;
}

let schema_version = "pstream_report/v1"

let alarm_to_json (a : Watchdog.alarm) =
  Json.Obj
    [
      ("op", Json.String a.op);
      ("tick", Json.Int a.tick);
      ("slope", Json.Float a.slope);
      ("size", Json.Int a.size);
      ( "unreachable_inputs",
        Json.List (List.map (fun s -> Json.String s) a.unreachable) );
    ]

let ints alist = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) alist)

let operator_to_json (o : operator_entry) =
  Json.Obj
    [
      ("name", Json.String o.name);
      ("inputs", Json.List (List.map (fun s -> Json.String s) o.inputs));
      ( "unreachable_inputs",
        Json.List (List.map (fun s -> Json.String s) o.unreachable_inputs) );
      ("stats", ints o.stats);
      ("state", ints o.state);
    ]

let to_json t =
  let registry_fields =
    match Registry.to_json t.registry with Json.Obj fs -> fs | _ -> []
  in
  Json.Obj
    ([
       ("schema", Json.String schema_version);
       ("run", Json.Obj t.meta);
       ("operators", Json.List (List.map operator_to_json t.operators));
     ]
    @ registry_fields
    @ [
        ("series", t.series);
        ("alarms", Json.List (List.map alarm_to_json t.alarms));
      ])

(* --- replay ------------------------------------------------------------ *)

let replay events =
  let tbl : (string, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let bump op metric n =
    let per_op =
      match Hashtbl.find_opt tbl op with
      | Some h -> h
      | None ->
          let h = Hashtbl.create 8 in
          Hashtbl.add tbl op h;
          order := op :: !order;
          h
    in
    Hashtbl.replace per_op metric
      ((match Hashtbl.find_opt per_op metric with Some v -> v | None -> 0) + n)
  in
  List.iter
    (function
      | Event.Tuple_in { op; _ } -> bump op "tuples_in" 1
      | Event.Tuple_out { op; count; _ } -> bump op "tuples_out" count
      | Event.Punct_in { op; _ } -> bump op "puncts_in" 1
      | Event.Punct_out { op; count; _ } -> bump op "puncts_out" count
      | Event.Purge { op; victims; _ } -> bump op "purged_tuples" victims
      | Event.Purge_round { op; _ } ->
          (* the round marker, emitted victims or not — per-input victim
             detail rides on the Purge events above *)
          bump op "purge_rounds" 1
      | Event.Evict { op; victims; _ } -> bump op "evicted_tuples" victims
      | Event.Unmatched { op; count; _ } -> bump op "unmatched_tuples" count
      | Event.Violation { op; kind = "late_data"; action; _ } ->
          bump op "late_tuples" 1;
          if String.equal action "quarantine" then bump op "quarantined_tuples" 1
      | Event.Violation { op; kind = "dup_punct" | "punct_regression"; _ } ->
          bump op "dup_puncts" 1
      | Event.Violation _ ->
          (* stall violations carry the pseudo-operator "contract"; they
             feed the watchdog, not a per-operator counter *)
          ()
      | Event.Load_shed { op; victims; _ } -> bump op "shed_tuples" victims
      | Event.Run_start _ | Event.Run_end _ | Event.Sample _ | Event.Alarm _
      | Event.Fault _ | Event.Shard_crash _ | Event.Shard_restart _
      | Event.Checkpoint _ | Event.Restore _ ->
          ())
    events;
  List.rev_map
    (fun op ->
      let per_op = Hashtbl.find tbl op in
      let metrics =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_op []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      (op, metrics))
    !order

(* --- verification ------------------------------------------------------ *)

let verify ~report ~events =
  let problems = ref [] in
  let problem fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  let counters =
    match Option.bind (Json.member "counters" report) Json.to_obj with
    | Some fields -> fields
    | None ->
        problem "report has no \"counters\" object";
        []
  in
  let reported name =
    match Option.bind (List.assoc_opt name counters) Json.to_int with
    | Some v -> v
    | None -> 0
  in
  let op_names =
    match Option.bind (Json.member "operators" report) Json.to_list with
    | Some ops ->
        List.filter_map
          (fun o -> Option.bind (Json.member "name" o) Json.to_str)
          ops
    | None ->
        problem "report has no \"operators\" array";
        []
  in
  let replayed = replay events in
  List.iter
    (fun (op, metrics) ->
      if not (List.mem op op_names) then
        problem "trace names operator %s, absent from the report" op;
      List.iter
        (fun (metric, expected) ->
          let name = op ^ "." ^ metric in
          let got = reported name in
          if got <> expected then
            problem "counter %s: report says %d, trace replay says %d" name got
              expected)
        metrics)
    replayed;
  (* counters the report claims but the trace never substantiates *)
  List.iter
    (fun (name, v) ->
      match String.index_opt name '.' with
      | Some i ->
          let op = String.sub name 0 i in
          let metric =
            String.sub name (i + 1) (String.length name - i - 1)
          in
          let replay_has =
            match List.assoc_opt op replayed with
            | Some metrics -> List.mem_assoc metric metrics
            | None -> false
          in
          let traceable =
            List.mem metric
              [
                "tuples_in"; "tuples_out"; "puncts_in"; "puncts_out";
                "purged_tuples"; "purge_rounds"; "evicted_tuples";
                "unmatched_tuples"; "late_tuples"; "quarantined_tuples";
                "dup_puncts"; "shed_tuples";
              ]
          in
          (match Json.to_int v with
          | Some n when n > 0 && traceable && not replay_has ->
              problem "counter %s = %d has no supporting trace events" name n
          | _ -> ())
      | None -> ())
    counters;
  (* final emitted count: Run_end vs the run metadata *)
  (match
     ( List.find_map
         (function Event.Run_end { emitted; _ } -> Some emitted | _ -> None)
         events,
       Option.bind (Json.member "run" report) (fun run ->
           Option.bind (Json.member "emitted" run) Json.to_int) )
   with
  | Some from_trace, Some from_report when from_trace <> from_report ->
      problem "emitted: report says %d, trace run_end says %d" from_report
        from_trace
  | _ -> ());
  match List.rev !problems with [] -> Ok () | ps -> Error ps
