open Relational
module Element = Streams.Element
module Punctuation = Streams.Punctuation
module Scheme = Streams.Scheme

let purgeable ~schemes ~input ~key =
  List.exists
    (fun sch ->
      List.for_all
        (fun a -> List.mem a key)
        (Scheme.punctuatable_attrs sch))
    (Scheme.Set.for_stream schemes (Schema.stream_name input))

let create ?(name = "dedup") ~input ~key () =
  if key = [] then invalid_arg "Dedup.create: empty key";
  let key_idxs = List.map (Schema.attr_index input) key in
  let seen : (Value.t list, unit) Hashtbl.t = Hashtbl.create 64 in
  let stats = ref Operator.empty_stats in
  let push = function
    | Element.Data tup ->
        stats := { !stats with tuples_in = !stats.tuples_in + 1 };
        let k = Tuple.project tup key_idxs in
        if Hashtbl.mem seen k then []
        else begin
          Hashtbl.add seen k ();
          stats := { !stats with tuples_out = !stats.tuples_out + 1 };
          [ Element.Data tup ]
        end
    | Element.Punct p ->
        stats := { !stats with puncts_in = !stats.puncts_in + 1 };
        (* Keys the punctuation covers can never repeat: drop them. *)
        let victims =
          Hashtbl.fold
            (fun k () acc ->
              if Punctuation.covers p (List.combine key_idxs k) then k :: acc
              else acc)
            seen []
        in
        List.iter (Hashtbl.remove seen) victims;
        stats :=
          {
            !stats with
            tuples_purged = !stats.tuples_purged + List.length victims;
            puncts_out = !stats.puncts_out + 1;
          };
        [ Element.Punct p ]
  in
  let save () =
    let module W = Streams.Wire.W in
    let b = Buffer.create 256 in
    W.u8 b 1;
    Operator.write_stats b !stats;
    let keys = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
    (* sorted so the same seen-set always serializes to the same bytes *)
    let keys = List.sort (List.compare Value.compare) keys in
    W.list (W.list Streams.Wire.write_value) b keys;
    Buffer.contents b
  in
  let load blob =
    let module R = Streams.Wire.R in
    let r = R.of_string blob in
    let v = R.u8 r in
    if v <> 1 then
      raise
        (Streams.Wire.Corrupt
           (Printf.sprintf "Dedup snapshot version %d, expected 1" v));
    let st = Operator.read_stats r in
    let keys = R.list (R.list Streams.Wire.read_value) r in
    R.expect_end r;
    stats := st;
    Hashtbl.reset seen;
    List.iter (fun k -> Hashtbl.replace seen k ()) keys
  in
  {
    Operator.name;
    out_schema = input;
    input_names = [ Schema.stream_name input ];
    push = Operator.batch_of_push push;
    flush = (fun () -> []);
    data_state_size = (fun () -> Hashtbl.length seen);
    punct_state_size = (fun () -> 0);
    index_state_size = (fun () -> 0);
    state_bytes =
      (fun () ->
        Mem_estimate.keyed_table_bytes ~key_width:(List.length key_idxs)
          ~payload_width:0 ~entries:(Hashtbl.length seen));
    stats = (fun () -> !stats);
    persistence = Operator.Snapshot { save; load };
  }
