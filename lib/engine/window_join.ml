open Relational
module Element = Streams.Element

type spec = Count of int | Ticks of int

let pp_spec ppf = function
  | Count n -> Fmt.pf ppf "count(%d)" n
  | Ticks n -> Fmt.pf ppf "ticks(%d)" n

type input = { name : string; schema : Schema.t }

let create ?(name = "window_join") ?(telemetry = Telemetry.null) ~window
    ~inputs ~predicates () =
  (match window with
  | Count n | Ticks n ->
      if n <= 0 then invalid_arg "Window_join.create: non-positive window");
  if List.length inputs < 2 then
    invalid_arg "Window_join.create: need at least two inputs";
  let names = List.map (fun i -> i.name) inputs in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Window_join.create: duplicate input names";
  List.iter
    (fun atom ->
      let s1, s2 = Predicate.streams_of atom in
      if not (List.mem s1 names && List.mem s2 names) then
        invalid_arg
          (Fmt.str "Window_join.create: predicate %a references unknown input"
             Predicate.pp_atom atom))
    predicates;
  let states =
    List.map (fun input -> (input.name, Join_state.create input.schema)) inputs
  in
  let state_of n = List.assoc n states in
  let out_schema =
    Schema.concat_all ~stream:name (List.map (fun i -> i.schema) inputs)
  in
  let progs =
    let names_arr = Array.of_list names in
    let schemas = Array.of_list (List.map (fun i -> i.schema) inputs) in
    let states = Array.of_list (List.map snd states) in
    List.map
      (fun (n, steps) ->
        (n, Probe.compile ~names:names_arr ~schemas ~states ~steps))
      (Probe.orders names predicates)
  in
  let stats = ref Operator.empty_stats in
  let now = ref 0 in
  (* The probe walk reuses its slot array, so each result copies it out
     (slots are in declared input order, the output's column order). *)
  let probe_from input_name tup =
    let results = ref [] in
    Probe.run_compiled (List.assoc input_name progs) tup ~tick:0
      ~emit:(fun asg _ ->
        let values = List.concat_map Tuple.values (Array.to_list asg) in
        results := Tuple.make out_schema values :: !results);
    List.rev !results
  in
  (* Time windows are evicted before probing (a probe must only see the
     last [n] ticks); count windows after inserting (cap each state at its
     last [n] tuples). *)
  let evict_stale () =
    let removed =
      List.fold_left
        (fun acc (input, state) ->
          let victims =
            match window with
            | Ticks n -> Join_state.evict_before state ~tick:(!now - n)
            | Count n ->
                Join_state.evict_before state
                  ~tick:(Join_state.insertions state - n)
          in
          if victims > 0 && Telemetry.enabled telemetry then begin
            Telemetry.emit telemetry
              (Obs.Event.Evict
                 { tick = Telemetry.now telemetry; op = name; input;
                   victims });
            Telemetry.incr ~by:victims telemetry (name ^ ".evicted_tuples")
          end;
          acc + victims)
        0 states
    in
    stats := { !stats with tuples_purged = !stats.tuples_purged + removed }
  in
  let process acc element =
    incr now;
    let input_name = Element.stream_name element in
    if not (List.mem input_name names) then
      invalid_arg
        (Fmt.str "Window_join %s: element for unknown input %s" name input_name);
    match element with
    | Element.Punct _ ->
        (* windows ignore punctuations: eviction is purely positional *)
        stats := { !stats with puncts_in = !stats.puncts_in + 1 }
    | Element.Data tup ->
        stats := { !stats with tuples_in = !stats.tuples_in + 1 };
        (match window with Ticks _ -> evict_stale () | Count _ -> ());
        let results = probe_from input_name tup in
        (match window with
        | Ticks _ -> Join_state.insert ~tick:!now (state_of input_name) tup
        | Count _ ->
            Join_state.insert (state_of input_name) tup;
            evict_stale ());
        stats :=
          { !stats with tuples_out = !stats.tuples_out + List.length results };
        List.iter (fun t -> acc := Element.Data t :: !acc) results
  in
  let push arr =
    let acc = ref [] in
    Array.iter (process acc) arr;
    List.rev !acc
  in
  (* Eviction only runs on data arrivals, but [now] advances on every
     element: trailing punctuations (or an idle tail) can leave tuples in
     the state that the window invariant already expired. A final eviction
     round reconciles the end-of-run state and its Evict-event accounting
     (windows produce no unmatched results, so flush emits no data). *)
  let flush () =
    (match window with Ticks _ -> evict_stale () | Count _ -> ());
    []
  in
  let save () =
    let module W = Streams.Wire.W in
    let b = Buffer.create 1024 in
    W.u8 b 1;
    Operator.write_stats b !stats;
    W.int b !now;
    List.iter (fun (_, s) -> Join_state.write_snapshot b s) states;
    Buffer.contents b
  in
  let load blob =
    let module R = Streams.Wire.R in
    let r = R.of_string blob in
    let v = R.u8 r in
    if v <> 1 then
      raise
        (Streams.Wire.Corrupt
           (Printf.sprintf "Window_join snapshot version %d, expected 1" v));
    let st = Operator.read_stats r in
    let n = R.int r in
    List.iter (fun (_, s) -> Join_state.read_snapshot s r) states;
    R.expect_end r;
    stats := st;
    now := n
  in
  {
    Operator.name;
    out_schema;
    input_names = names;
    push;
    flush;
    state = (fun () -> Join_state.reading ~puncts:0 (List.map snd states));
    stats = (fun () -> !stats);
    persistence = Operator.Snapshot { save; load };
  }
