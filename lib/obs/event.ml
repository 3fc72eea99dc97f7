type t =
  | Run_start of { tick : int; label : string }
  | Run_end of { tick : int; emitted : int }
  | Tuple_in of { tick : int; op : string; input : string }
  | Tuple_out of { tick : int; op : string; count : int }
  | Punct_in of { tick : int; op : string; input : string }
  | Punct_out of { tick : int; op : string; count : int }
  | Purge of {
      tick : int;
      op : string;
      input : string;
      trigger : string;
      victims : int;
      lag : int;
    }
  | Purge_round of {
      tick : int;
      op : string;
      trigger : string;
      victims : int;  (* total across all inputs; 0 for a victim-less round *)
      lag : int;
    }
  | Evict of { tick : int; op : string; input : string; victims : int }
  | Unmatched of {
      tick : int;
      op : string;
      input : string;  (* the preserved side whose tuples were released *)
      trigger : string;  (* "punct" | "immediate" | "null_key" | "flush" *)
      count : int;
    }
  | Sample of {
      tick : int;
      data_state : int;
      punct_state : int;
      index_state : int;
      state_bytes : int;
      emitted : int;
    }
  | Alarm of {
      tick : int;
      op : string;
      slope : float;
      size : int;
      unreachable : string list;
    }
  | Fault of { tick : int; kind : string; stream : string; detail : string }
  | Violation of {
      tick : int;
      op : string;
      input : string;
      kind : string;
      action : string;
    }
  | Load_shed of { tick : int; op : string; victims : int; bytes : int }
  | Shard_crash of { tick : int; shard : int; reason : string; attempt : int }
  | Shard_restart of { tick : int; shard : int; attempt : int; replayed : int }
  | Checkpoint of { tick : int; barrier : int; bytes : int; duration_ns : int }
  | Restore of { tick : int; shard : int; bytes : int; duration_ns : int }

let op_of = function
  | Run_start _ | Run_end _ | Sample _ | Fault _ | Shard_crash _
  | Shard_restart _ | Checkpoint _ | Restore _ ->
      None
  | Tuple_in { op; _ }
  | Tuple_out { op; _ }
  | Punct_in { op; _ }
  | Punct_out { op; _ }
  | Purge { op; _ }
  | Purge_round { op; _ }
  | Evict { op; _ }
  | Unmatched { op; _ }
  | Alarm { op; _ }
  | Violation { op; _ }
  | Load_shed { op; _ } ->
      Some op

let tick_of = function
  | Run_start { tick; _ }
  | Run_end { tick; _ }
  | Tuple_in { tick; _ }
  | Tuple_out { tick; _ }
  | Punct_in { tick; _ }
  | Punct_out { tick; _ }
  | Purge { tick; _ }
  | Purge_round { tick; _ }
  | Evict { tick; _ }
  | Unmatched { tick; _ }
  | Sample { tick; _ }
  | Alarm { tick; _ }
  | Fault { tick; _ }
  | Violation { tick; _ }
  | Load_shed { tick; _ }
  | Shard_crash { tick; _ }
  | Shard_restart { tick; _ }
  | Checkpoint { tick; _ }
  | Restore { tick; _ } ->
      tick

let to_json ?shard e =
  let f fields =
    match shard with
    | None -> Json.Obj fields
    | Some s -> Json.Obj (fields @ [ ("shard", Json.Int s) ])
  in
  match e with
  | Run_start { tick; label } ->
      f [ ("ev", String "run_start"); ("tick", Int tick); ("label", String label) ]
  | Run_end { tick; emitted } ->
      f [ ("ev", String "run_end"); ("tick", Int tick); ("emitted", Int emitted) ]
  | Tuple_in { tick; op; input } ->
      f
        [
          ("ev", String "tuple_in");
          ("tick", Int tick);
          ("op", String op);
          ("input", String input);
        ]
  | Tuple_out { tick; op; count } ->
      f
        [
          ("ev", String "tuple_out");
          ("tick", Int tick);
          ("op", String op);
          ("count", Int count);
        ]
  | Punct_in { tick; op; input } ->
      f
        [
          ("ev", String "punct_in");
          ("tick", Int tick);
          ("op", String op);
          ("input", String input);
        ]
  | Punct_out { tick; op; count } ->
      f
        [
          ("ev", String "punct_out");
          ("tick", Int tick);
          ("op", String op);
          ("count", Int count);
        ]
  | Purge { tick; op; input; trigger; victims; lag } ->
      f
        [
          ("ev", String "purge");
          ("tick", Int tick);
          ("op", String op);
          ("input", String input);
          ("trigger", String trigger);
          ("victims", Int victims);
          ("lag", Int lag);
        ]
  | Purge_round { tick; op; trigger; victims; lag } ->
      f
        [
          ("ev", String "purge_round");
          ("tick", Int tick);
          ("op", String op);
          ("trigger", String trigger);
          ("victims", Int victims);
          ("lag", Int lag);
        ]
  | Evict { tick; op; input; victims } ->
      f
        [
          ("ev", String "evict");
          ("tick", Int tick);
          ("op", String op);
          ("input", String input);
          ("victims", Int victims);
        ]
  | Unmatched { tick; op; input; trigger; count } ->
      f
        [
          ("ev", String "unmatched");
          ("tick", Int tick);
          ("op", String op);
          ("input", String input);
          ("trigger", String trigger);
          ("count", Int count);
        ]
  | Sample { tick; data_state; punct_state; index_state; state_bytes; emitted }
    ->
      f
        [
          ("ev", String "sample");
          ("tick", Int tick);
          ("data_state", Int data_state);
          ("punct_state", Int punct_state);
          ("index_state", Int index_state);
          ("state_bytes", Int state_bytes);
          ("emitted", Int emitted);
        ]
  | Alarm { tick; op; slope; size; unreachable } ->
      f
        [
          ("ev", String "alarm");
          ("tick", Int tick);
          ("op", String op);
          ("slope", Float slope);
          ("size", Int size);
          ("unreachable", List (List.map (fun s -> Json.String s) unreachable));
        ]
  | Fault { tick; kind; stream; detail } ->
      f
        [
          ("ev", String "fault");
          ("tick", Int tick);
          ("kind", String kind);
          ("stream", String stream);
          ("detail", String detail);
        ]
  | Violation { tick; op; input; kind; action } ->
      f
        [
          ("ev", String "violation");
          ("tick", Int tick);
          ("op", String op);
          ("input", String input);
          ("kind", String kind);
          ("action", String action);
        ]
  | Load_shed { tick; op; victims; bytes } ->
      f
        [
          ("ev", String "load_shed");
          ("tick", Int tick);
          ("op", String op);
          ("victims", Int victims);
          ("bytes", Int bytes);
        ]
  | Shard_crash { tick; shard; reason; attempt } ->
      f
        [
          ("ev", String "shard_crash");
          ("tick", Int tick);
          ("crashed_shard", Int shard);
          ("reason", String reason);
          ("attempt", Int attempt);
        ]
  | Shard_restart { tick; shard; attempt; replayed } ->
      f
        [
          ("ev", String "shard_restart");
          ("tick", Int tick);
          ("crashed_shard", Int shard);
          ("attempt", Int attempt);
          ("replayed", Int replayed);
        ]
  | Checkpoint { tick; barrier; bytes; duration_ns } ->
      f
        [
          ("ev", String "checkpoint");
          ("tick", Int tick);
          ("barrier", Int barrier);
          ("bytes", Int bytes);
          ("duration_ns", Int duration_ns);
        ]
  | Restore { tick; shard; bytes; duration_ns } ->
      f
        [
          ("ev", String "restore");
          ("tick", Int tick);
          ("crashed_shard", Int shard);
          ("bytes", Int bytes);
          ("duration_ns", Int duration_ns);
        ]

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let int name = field name Json.to_int in
  let str name = field name Json.to_str in
  let* ev = str "ev" in
  match ev with
  | "run_start" ->
      let* tick = int "tick" in
      let* label = str "label" in
      Ok (Run_start { tick; label })
  | "run_end" ->
      let* tick = int "tick" in
      let* emitted = int "emitted" in
      Ok (Run_end { tick; emitted })
  | "tuple_in" ->
      let* tick = int "tick" in
      let* op = str "op" in
      let* input = str "input" in
      Ok (Tuple_in { tick; op; input })
  | "tuple_out" ->
      let* tick = int "tick" in
      let* op = str "op" in
      let* count = int "count" in
      Ok (Tuple_out { tick; op; count })
  | "punct_in" ->
      let* tick = int "tick" in
      let* op = str "op" in
      let* input = str "input" in
      Ok (Punct_in { tick; op; input })
  | "punct_out" ->
      let* tick = int "tick" in
      let* op = str "op" in
      let* count = int "count" in
      Ok (Punct_out { tick; op; count })
  | "purge" ->
      let* tick = int "tick" in
      let* op = str "op" in
      let* input = str "input" in
      let* trigger = str "trigger" in
      let* victims = int "victims" in
      let* lag = int "lag" in
      Ok (Purge { tick; op; input; trigger; victims; lag })
  | "purge_round" ->
      let* tick = int "tick" in
      let* op = str "op" in
      let* trigger = str "trigger" in
      let* victims = int "victims" in
      let* lag = int "lag" in
      Ok (Purge_round { tick; op; trigger; victims; lag })
  | "evict" ->
      let* tick = int "tick" in
      let* op = str "op" in
      let* input = str "input" in
      let* victims = int "victims" in
      Ok (Evict { tick; op; input; victims })
  | "unmatched" ->
      let* tick = int "tick" in
      let* op = str "op" in
      let* input = str "input" in
      let* trigger = str "trigger" in
      let* count = int "count" in
      Ok (Unmatched { tick; op; input; trigger; count })
  | "sample" ->
      let* tick = int "tick" in
      let* data_state = int "data_state" in
      let* punct_state = int "punct_state" in
      let* index_state = int "index_state" in
      let* state_bytes = int "state_bytes" in
      let* emitted = int "emitted" in
      Ok
        (Sample
           { tick; data_state; punct_state; index_state; state_bytes; emitted })
  | "alarm" ->
      let* tick = int "tick" in
      let* op = str "op" in
      let* slope = field "slope" Json.to_float in
      let* size = int "size" in
      let* unreachable =
        match Option.bind (Json.member "unreachable" j) Json.to_list with
        | Some vs -> (
            let names = List.filter_map Json.to_str vs in
            if List.length names = List.length vs then Ok names
            else Error "ill-typed field \"unreachable\"")
        | None -> Error "missing field \"unreachable\""
      in
      Ok (Alarm { tick; op; slope; size; unreachable })
  | "fault" ->
      let* tick = int "tick" in
      let* kind = str "kind" in
      let* stream = str "stream" in
      let* detail = str "detail" in
      Ok (Fault { tick; kind; stream; detail })
  | "violation" ->
      let* tick = int "tick" in
      let* op = str "op" in
      let* input = str "input" in
      let* kind = str "kind" in
      let* action = str "action" in
      Ok (Violation { tick; op; input; kind; action })
  | "load_shed" ->
      let* tick = int "tick" in
      let* op = str "op" in
      let* victims = int "victims" in
      let* bytes = int "bytes" in
      Ok (Load_shed { tick; op; victims; bytes })
  | "shard_crash" ->
      let* tick = int "tick" in
      let* shard = int "crashed_shard" in
      let* reason = str "reason" in
      let* attempt = int "attempt" in
      Ok (Shard_crash { tick; shard; reason; attempt })
  | "shard_restart" ->
      let* tick = int "tick" in
      let* shard = int "crashed_shard" in
      let* attempt = int "attempt" in
      let* replayed = int "replayed" in
      Ok (Shard_restart { tick; shard; attempt; replayed })
  | "checkpoint" ->
      let* tick = int "tick" in
      let* barrier = int "barrier" in
      let* bytes = int "bytes" in
      let* duration_ns = int "duration_ns" in
      Ok (Checkpoint { tick; barrier; bytes; duration_ns })
  | "restore" ->
      let* tick = int "tick" in
      let* shard = int "crashed_shard" in
      let* bytes = int "bytes" in
      let* duration_ns = int "duration_ns" in
      Ok (Restore { tick; shard; bytes; duration_ns })
  | other -> Error (Printf.sprintf "unknown event kind %S" other)

let to_line ?shard e = Json.to_string (to_json ?shard e)

let of_line s =
  match Json.parse s with
  | Error msg -> Error ("bad JSON: " ^ msg)
  | Ok j -> of_json j
