open Relational
module Punctuation = Streams.Punctuation
module Element = Streams.Element

type aggregate =
  | Count
  | Sum of string
  | Min of string
  | Max of string

type acc = CInt of int | CFloat of float

let acc_value = function CInt i -> Value.Int i | CFloat f -> Value.Float f

let create ?(name = "groupby") ~input ~group_by ~aggregate () =
  if group_by = [] then invalid_arg "Groupby.create: empty grouping key";
  let key_idxs = List.map (Schema.attr_index input) group_by in
  let agg_attr attr =
    let idx = Schema.attr_index input attr in
    match (Schema.attr_at input idx).Schema.ty with
    | Value.TInt | Value.TFloat -> idx
    | Value.TStr | Value.TBool ->
        invalid_arg
          (Printf.sprintf "Groupby.create: attribute %s is not numeric" attr)
  in
  let agg_ty, agg_idx =
    match aggregate with
    | Count -> (Value.TInt, None)
    | Sum a | Min a | Max a ->
        let idx = agg_attr a in
        ((Schema.attr_at input idx).Schema.ty, Some idx)
  in
  let out_schema =
    Schema.make ~stream:name
      (List.map (fun i -> Schema.attr_at input i) key_idxs
      @ [ { Schema.name = "agg"; ty = agg_ty } ])
  in
  let groups : (Value.t list, acc) Hashtbl.t = Hashtbl.create 64 in
  let stats = ref Operator.empty_stats in
  let numeric tup idx =
    match Tuple.get tup idx with
    | Value.Int i -> CInt i
    | Value.Float f -> CFloat f
    | Value.Str _ | Value.Bool _ | Value.Null ->
        invalid_arg "Groupby: non-numeric aggregate value"
  in
  let combine a b =
    match aggregate, a, b with
    | (Sum _ | Count), CInt x, CInt y -> CInt (x + y)
    | (Sum _ | Count), CFloat x, CFloat y -> CFloat (x +. y)
    | Min _, CInt x, CInt y -> CInt (min x y)
    | Min _, CFloat x, CFloat y -> CFloat (min x y)
    | Max _, CInt x, CInt y -> CInt (max x y)
    | Max _, CFloat x, CFloat y -> CFloat (max x y)
    | _ -> invalid_arg "Groupby: mixed aggregate value types"
  in
  let contribution tup =
    match aggregate, agg_idx with
    | Count, None -> CInt 1
    | (Sum _ | Min _ | Max _), Some idx -> numeric tup idx
    | Count, Some _ | (Sum _ | Min _ | Max _), None -> assert false
  in
  let emit_group key acc =
    Hashtbl.remove groups key;
    Tuple.make out_schema (key @ [ acc_value acc ])
  in
  let push element =
    match element with
    | Element.Data tup ->
        stats := { !stats with tuples_in = !stats.tuples_in + 1 };
        let key = Tuple.project tup key_idxs in
        let c = contribution tup in
        (match Hashtbl.find_opt groups key with
        | Some acc -> Hashtbl.replace groups key (combine acc c)
        | None -> Hashtbl.add groups key c);
        []
    | Element.Punct p ->
        stats := { !stats with puncts_in = !stats.puncts_in + 1 };
        (* Emit every group whose key the punctuation covers: no more
           members can arrive for it. *)
        let ready =
          Hashtbl.fold
            (fun key acc out ->
              let bindings = List.combine key_idxs key in
              if Punctuation.covers p bindings then (key, acc) :: out
              else out)
            groups []
        in
        let results =
          List.map (fun (key, acc) -> emit_group key acc) ready
        in
        stats :=
          {
            !stats with
            tuples_out = !stats.tuples_out + List.length results;
            tuples_purged = !stats.tuples_purged + List.length results;
          };
        (* Forward the punctuation when it speaks about the group key, so
           downstream consumers also learn the groups are closed. *)
        let forward =
          let pinned = List.map fst (Punctuation.const_bindings p) in
          if List.for_all (fun i -> List.mem i pinned) key_idxs then
            let bindings =
              List.filter_map
                (fun (i, v) ->
                  if List.mem i key_idxs then
                    Some ((Schema.attr_at input i).Schema.name, v)
                  else None)
                (Punctuation.const_bindings p)
            in
            [ Element.Punct (Punctuation.of_bindings out_schema bindings) ]
          else []
        in
        stats :=
          { !stats with puncts_out = !stats.puncts_out + List.length forward };
        List.map (fun t -> Element.Data t) results @ forward
  in
  let save () =
    let module W = Streams.Wire.W in
    let b = Buffer.create 256 in
    W.u8 b 1;
    Operator.write_stats b !stats;
    let entries = Hashtbl.fold (fun k acc l -> (k, acc) :: l) groups [] in
    (* sorted so the same group table always serializes to the same bytes *)
    let entries =
      List.sort (fun (a, _) (b, _) -> List.compare Value.compare a b) entries
    in
    W.list
      (fun b (key, acc) ->
        W.list Streams.Wire.write_value b key;
        match acc with
        | CInt i ->
            W.u8 b 0;
            W.int b i
        | CFloat f ->
            W.u8 b 1;
            W.float b f)
      b entries;
    Buffer.contents b
  in
  let load blob =
    let module R = Streams.Wire.R in
    let r = R.of_string blob in
    let v = R.u8 r in
    if v <> 1 then
      raise
        (Streams.Wire.Corrupt
           (Printf.sprintf "Groupby snapshot version %d, expected 1" v));
    let st = Operator.read_stats r in
    let entries =
      R.list
        (fun r ->
          let key = R.list Streams.Wire.read_value r in
          let acc =
            match R.u8 r with
            | 0 -> CInt (R.int r)
            | 1 -> CFloat (R.float r)
            | t ->
                raise
                  (Streams.Wire.Corrupt
                     (Printf.sprintf "Groupby snapshot: bad acc tag %d" t))
          in
          (key, acc))
        r
    in
    R.expect_end r;
    stats := st;
    Hashtbl.reset groups;
    List.iter (fun (k, acc) -> Hashtbl.replace groups k acc) entries
  in
  {
    Operator.name;
    out_schema;
    input_names = [ Schema.stream_name input ];
    push = Operator.batch_of_push push;
    flush = (fun () -> []);
    data_state_size = (fun () -> Hashtbl.length groups);
    punct_state_size = (fun () -> 0);
    index_state_size = (fun () -> 0);
    state_bytes =
      (fun () ->
        (* key values plus the one accumulator cell per group *)
        Mem_estimate.keyed_table_bytes ~key_width:(List.length key_idxs)
          ~payload_width:1 ~entries:(Hashtbl.length groups));
    stats = (fun () -> !stats);
    persistence = Operator.Snapshot { save; load };
  }
