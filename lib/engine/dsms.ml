module Element = Streams.Element

type runner = { name : string; compiled : Executor.compiled }

type stats = {
  elements_seen : int;
  deliveries : int;
  punctuations_skipped : int;
}

type t = {
  register : Core.Register.t;
  runners : runner list;
  mutable seen : int;
  mutable delivered : int;
  mutable skipped : int;
  outputs : (string, Relational.Tuple.t list ref) Hashtbl.t;
}

let of_register ?(policy = Purge_policy.Eager) register =
  let runners =
    List.map
      (fun name ->
        {
          name;
          compiled =
            Executor.compile
              ~config:{ Executor.Config.default with policy }
              (Core.Register.query_of register name)
              (Core.Register.plan_of register name);
        })
      (Core.Register.queries register)
  in
  let outputs = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace outputs r.name (ref [])) runners;
  { register; runners; seen = 0; delivered = 0; skipped = 0; outputs }

(* Executor.run drives a whole sequence; routing decides per element, so
   the DSMS feeds each delivered element to its tree as a run of one. *)
let push t element =
  t.seen <- t.seen + 1;
  List.filter_map
    (fun r ->
      let relevant = Core.Register.useful t.register r.name element in
      if not relevant then begin
        (match element with
        | Element.Punct _
          when List.mem
                 (Element.stream_name element)
                 (Query.Cjq.stream_names
                    (Core.Register.query_of t.register r.name)) ->
            (* the query reads this stream but the punctuation is useless
               to it: this is a saved delivery *)
            t.skipped <- t.skipped + 1
        | _ -> ());
        None
      end
      else begin
        t.delivered <- t.delivered + 1;
        let outs = Executor.feed_batch r.compiled [| element |] in
        let sink = Hashtbl.find t.outputs r.name in
        List.iter
          (fun e ->
            match e with
            | Element.Data tup -> sink := tup :: !sink
            | Element.Punct _ -> ())
          outs;
        if outs = [] then None else Some (r.name, outs)
      end)
    t.runners

let run t elements =
  Seq.iter (fun e -> ignore (push t e)) elements;
  List.map
    (fun r ->
      let outs = Executor.flush_tree r.compiled in
      let sink = Hashtbl.find t.outputs r.name in
      List.iter
        (fun e ->
          match e with
          | Element.Data tup -> sink := tup :: !sink
          | Element.Punct _ -> ())
        outs;
      (r.name, List.rev !sink))
    t.runners

let stats t =
  {
    elements_seen = t.seen;
    deliveries = t.delivered;
    punctuations_skipped = t.skipped;
  }

let state_of t name =
  match List.find_opt (fun r -> r.name = name) t.runners with
  | Some r -> Executor.total_data_state r.compiled
  | None -> invalid_arg (Printf.sprintf "Dsms: unknown query %S" name)
