(* The open-loop workload: element i of a seeded round trace is due at
   t0 + i/rate, whatever the engine is doing. Each step hands every due
   element not yet fed (up to [batch_cap], never across the state sampling
   grid) to one [Executor.feed_batch] call with telemetry off.

   A result's latency is that of the element that completed it — the last
   data tuple of its key — measured from when that element was due to when
   the feed call that consumed it returned. Lateness of the generator
   itself (waking after the due time, or waiting behind a busy engine) is
   counted in the latency and reported separately. *)

module Executor = Engine.Executor
module Element = Streams.Element

type t = {
  query : Query.Cjq.t;
  input : Streams.Element.t array;  (** the elements fed, in due order *)
  elements : int;
  results : int;
  expected : int;
  hash_ok : bool;
  busy_s : float;  (** time inside feed_batch and the final flush *)
  latencies_ms : float array;  (** one per result *)
  feed_us : float array;  (** one per feed_batch call *)
  gen_lag_max_ms : float;
  backlog_max : int;
  peak_state_bytes : int;
  peak_puncts : int;
  peak_live : int;
  peak_index : int;
  stats : (string * Engine.Operator.stats) list;  (** per operator *)
}

let key_of_tuple t =
  match Relational.Tuple.get t 0 with Relational.Value.Int k -> k | _ -> -1

let run ~(timer : Spans.timer) ~queries_dir ~seed ~(shape : Gen.shape) ~sample_every
    (w : Workloads.t) =
  let rate, batch_cap =
    match w.kind with
    | Workloads.Open_loop { rate; batch_cap; _ } -> (rate, batch_cap)
    | _ -> invalid_arg "Open_loop.run: not an open-loop workload"
  in
  let inp =
    { Mirror.queries_dir; trace_path = ""; shape; sample_every }
  in
  let query, compiled =
    match Mirror.prepare timer w inp with
    | Mirror.Open { query; compiled } -> (query, compiled)
    | _ -> assert false
  in
  let trace =
    timer.span "workload.generate" (fun () ->
        Array.of_list (Gen.round_trace ~seed (Query.Cjq.stream_defs query) shape))
  in
  let n = Array.length trace in
  let completing = Hashtbl.create 4096 in
  Array.iteri
    (fun i e -> match e with Element.Data t -> Hashtbl.replace completing (key_of_tuple t) i | _ -> ())
    trace;
  let period_ns = 1e9 /. float_of_int rate in
  let latencies = ref [] and feed_us = ref [] and outputs = ref [] in
  let busy = ref 0 and gen_lag_max = ref 0 and backlog_max = ref 0 in
  let peak_bytes = ref 0 and peak_puncts = ref 0 and peak_live = ref 0 and peak_index = ref 0 in
  let sample () =
    peak_bytes := max !peak_bytes (Executor.total_state_bytes compiled);
    peak_puncts := max !peak_puncts (Executor.total_punct_state compiled);
    peak_live := max !peak_live (Executor.total_data_state compiled);
    peak_index := max !peak_index (Executor.total_index_state compiled)
  in
  let t0 = Spans.now_ns () + 1_000_000 in
  let due i = t0 + int_of_float (float_of_int i *. period_ns) in
  let accept ~returned outs =
    List.iter
      (fun e ->
        outputs := e :: !outputs;
        match e with
        | Element.Data t -> (
            match Hashtbl.find_opt completing (key_of_tuple t) with
            | Some i -> latencies := (float_of_int (returned - due i) /. 1e6) :: !latencies
            | None -> ())
        | Element.Punct _ -> ())
      outs
  in
  timer.span "open_loop.feed" (fun () ->
      let next = ref 0 in
      while !next < n do
        let now = Spans.now_ns () in
        let due_count =
          if now < t0 then 0
          else min n (1 + int_of_float (float_of_int (now - t0) /. period_ns))
        in
        if due_count <= !next then Unix.sleepf (float_of_int (due !next - now) /. 1e9)
        else begin
          backlog_max := max !backlog_max (due_count - !next);
          gen_lag_max := max !gen_lag_max (now - due !next);
          let grid_end = ((!next / sample_every) + 1) * sample_every in
          let cut = min (min due_count grid_end) (!next + batch_cap) in
          let batch = Array.sub trace !next (cut - !next) in
          let t_start = Spans.now_ns () in
          let outs = Executor.feed_batch compiled batch in
          let returned = Spans.now_ns () in
          busy := !busy + (returned - t_start);
          feed_us := (float_of_int (returned - t_start) /. 1e3) :: !feed_us;
          accept ~returned outs;
          next := cut;
          if cut mod sample_every = 0 then sample ()
        end
      done;
      let t_start = Spans.now_ns () in
      let outs = Executor.flush_tree compiled in
      let returned = Spans.now_ns () in
      busy := !busy + (returned - t_start);
      accept ~returned outs;
      sample ());
  let schema = Executor.output_schema compiled in
  let keys = Gen.keys ~offset:(Gen.key_offset seed) shape in
  let hash = timer.span "executor.hash" (fun () -> Executor.output_hash !outputs) in
  let results = List.length (List.filter Element.is_data !outputs) in
  {
    query;
    input = trace;
    elements = n;
    results;
    expected = List.length keys;
    hash_ok = hash = Gen.reference_hash schema keys;
    busy_s = float_of_int !busy /. 1e9;
    latencies_ms = Array.of_list !latencies;
    feed_us = Array.of_list !feed_us;
    gen_lag_max_ms = float_of_int !gen_lag_max /. 1e6;
    backlog_max = !backlog_max;
    peak_state_bytes = !peak_bytes;
    peak_puncts = !peak_puncts;
    peak_live = !peak_live;
    peak_index = !peak_index;
    stats =
      List.map
        (fun (op : Engine.Operator.t) -> (op.name, op.stats ()))
        (Executor.operators ~c:compiled);
  }

let ok r = r.hash_ok && r.results = r.expected
