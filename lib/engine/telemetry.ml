module Element = Streams.Element

type t = {
  enabled : bool;
  sink : Obs.Sink.t;
  registry : Obs.Registry.t;
  watchdog : Obs.Watchdog.t option;
  clock : int ref;
  time : unit -> int;
}

(* Wall time from the monotonic clock: each domain times its own pushes,
   and a push that waits reports its wait. *)
let default_time () = Int64.to_int (Monotonic_clock.now ())

(* The shared disabled handle: no recording operation touches it, so one
   value serves every uninstrumented compile. *)
let null =
  {
    enabled = false;
    sink = Obs.Sink.null;
    registry = Obs.Registry.create ();
    watchdog = None;
    clock = ref 0;
    time = (fun () -> 0);
  }

let create ?(sink = Obs.Sink.null) ?watchdog ?(time_ns = default_time) () =
  {
    enabled = true;
    sink;
    registry = Obs.Registry.create ();
    watchdog;
    clock = ref 0;
    time = time_ns;
  }

let enabled t = t.enabled
let registry t = t.registry
let watchdog t = t.watchdog

let alarms t =
  match t.watchdog with Some w -> Obs.Watchdog.alarms w | None -> []

let now t = !(t.clock)
let set_clock t tick = if t.enabled then t.clock := tick
let emit t e = if t.enabled then t.sink.Obs.Sink.emit e
let time_ns t = t.time ()
let incr ?by t name = if t.enabled then Obs.Registry.incr ?by t.registry name

let set_gauge ?agg t name v =
  if t.enabled then Obs.Registry.set_gauge ?agg t.registry name v

let observe ?n t name v = if t.enabled then Obs.Registry.observe ?n t.registry name v
let close t = if t.enabled then t.sink.Obs.Sink.close ()

let wrap_op t (op : Operator.t) =
  if not t.enabled then op
  else begin
    let c_tuples_in = op.name ^ ".tuples_in"
    and c_puncts_in = op.name ^ ".puncts_in"
    and c_tuples_out = op.name ^ ".tuples_out"
    and c_puncts_out = op.name ^ ".puncts_out"
    and h_push = op.name ^ ".push_ns" in
    let record_outs outs =
      let tuples, puncts =
        List.fold_left
          (fun (d, p) e ->
            if Element.is_data e then (d + 1, p) else (d, p + 1))
          (0, 0) outs
      in
      if tuples > 0 then begin
        incr ~by:tuples t c_tuples_out;
        emit t (Obs.Event.Tuple_out { tick = now t; op = op.name; count = tuples })
      end;
      if puncts > 0 then begin
        incr ~by:puncts t c_puncts_out;
        emit t (Obs.Event.Punct_out { tick = now t; op = op.name; count = puncts })
      end
    in
    let push arr =
      (* One in-event per element, so replay counts what the operator
         consumed; one timing observation per call, so push_ns is the
         cost of a run. *)
      Array.iter
        (fun e ->
          let input = Element.stream_name e in
          match e with
          | Element.Data _ ->
              incr t c_tuples_in;
              emit t (Obs.Event.Tuple_in { tick = now t; op = op.name; input })
          | Element.Punct _ ->
              incr t c_puncts_in;
              emit t (Obs.Event.Punct_in { tick = now t; op = op.name; input }))
        arr;
      let t0 = t.time () in
      let outs = op.push arr in
      observe t h_push (t.time () - t0);
      record_outs outs;
      outs
    in
    let flush () =
      let outs = op.flush () in
      record_outs outs;
      outs
    in
    { op with push; flush }
  end
