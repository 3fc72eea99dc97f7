open Relational
module Scheme = Streams.Scheme
module Punctuation = Streams.Punctuation
module Element = Streams.Element
module Stream_def = Streams.Stream_def
module Cjq = Query.Cjq

type query_config = {
  n_streams : int;
  extra_edges : int;
  attrs_per_stream : int;
  single_scheme_prob : float;
  multi_scheme_prob : float;
  ordered_scheme_prob : float;
  seed : int;
}

let default_query_config =
  {
    n_streams = 4;
    extra_edges = 1;
    attrs_per_stream = 3;
    single_scheme_prob = 0.5;
    multi_scheme_prob = 0.3;
    ordered_scheme_prob = 0.0;
    seed = 1;
  }

let stream_name i = Printf.sprintf "S%d" i
let attr_name j = Printf.sprintf "a%d" j

let int_schema name n_attrs =
  Schema.make ~stream:name
    (List.init n_attrs (fun j ->
         { Schema.name = attr_name j; ty = Value.TInt }))

let random_query config =
  if config.n_streams < 2 then
    invalid_arg "Synth.random_query: need at least two streams";
  if config.attrs_per_stream < 1 then
    invalid_arg "Synth.random_query: need at least one attribute";
  let rng = Rng.create ~seed:config.seed in
  let schemas =
    List.init config.n_streams (fun i ->
        int_schema (stream_name (i + 1)) config.attrs_per_stream)
  in
  let rand_attr () = attr_name (Rng.int rng config.attrs_per_stream) in
  let spanning =
    List.init (config.n_streams - 1) (fun i ->
        let child = i + 2 in
        let parent = 1 + Rng.int rng (child - 1) in
        Predicate.atom (stream_name child) (rand_attr ())
          (stream_name parent) (rand_attr ()))
  in
  let extra =
    List.init config.extra_edges (fun _ ->
        let a = 1 + Rng.int rng config.n_streams in
        let b = 1 + Rng.int rng config.n_streams in
        if a = b then None
        else
          Some
            (Predicate.atom (stream_name a) (rand_attr ()) (stream_name b)
               (rand_attr ())))
    |> List.filter_map Fun.id
  in
  let preds = List.sort_uniq Predicate.atom_compare (spanning @ extra) in
  let defs =
    List.map
      (fun schema ->
        let s = Schema.stream_name schema in
        let join_attrs =
          List.filter_map
            (fun a ->
              if Predicate.involves a s then Some (Predicate.attr_on a s)
              else None)
            preds
          |> List.sort_uniq String.compare
        in
        let singles =
          List.filter_map
            (fun attr ->
              if Rng.float rng < config.single_scheme_prob then
                if Rng.float rng < config.ordered_scheme_prob then
                  Some (Scheme.ordered schema [ attr ])
                else Some (Scheme.of_attrs schema [ attr ])
              else None)
            join_attrs
        in
        let multi =
          if
            List.length join_attrs >= 2
            && Rng.float rng < config.multi_scheme_prob
          then [ Scheme.of_attrs schema (Rng.sample rng 2 join_attrs) ]
          else []
        in
        Stream_def.make schema (singles @ multi))
      schemas
  in
  Cjq.make defs preds

let chain_query ~n () =
  if n < 2 then invalid_arg "Synth.chain_query: n >= 2";
  let schemas = List.init n (fun i -> int_schema (stream_name (i + 1)) 2) in
  (* S_i.a1 = S_{i+1}.a0; both link endpoints punctuatable. *)
  let preds =
    List.init (n - 1) (fun i ->
        Predicate.atom (stream_name (i + 1)) "a1" (stream_name (i + 2)) "a0")
  in
  let defs =
    List.mapi
      (fun i schema ->
        let attrs =
          (if i > 0 then [ "a0" ] else [])
          @ if i < n - 1 then [ "a1" ] else []
        in
        Stream_def.make schema
          (List.map (fun a -> Scheme.of_attrs schema [ a ]) attrs))
      schemas
  in
  Cjq.make defs preds

let cycle_query ~n () =
  if n < 3 then invalid_arg "Synth.cycle_query: n >= 3";
  let schemas = List.init n (fun i -> int_schema (stream_name (i + 1)) 2) in
  (* Ring S1 - S2 - ... - Sn - S1 on a1/a0; each stream punctuatable only on
     a0 (its link to the predecessor): the punctuation graph is one directed
     cycle, so the single MJoin is safe but every proper sub-operator is
     not — Figure 5 generalized. *)
  let preds =
    List.init n (fun i ->
        let next = if i = n - 1 then 1 else i + 2 in
        Predicate.atom (stream_name (i + 1)) "a1" (stream_name next) "a0")
  in
  let defs =
    List.map
      (fun schema -> Stream_def.make schema [ Scheme.of_attrs schema [ "a0" ] ])
      schemas
  in
  Cjq.make defs preds

exception Unkeyable_attribute of { stream : string; attr : string }

(* A generated value [k] in attribute [a]'s declared type: every type but
   bool can carry any integer key. *)
let key_value stream (a : Schema.attribute) k =
  match a.Schema.ty with
  | Value.TInt -> Value.Int k
  | Value.TStr -> Value.Str (string_of_int k)
  | Value.TFloat -> Value.Float (float_of_int k)
  | Value.TBool -> raise (Unkeyable_attribute { stream; attr = a.Schema.name })

type trace_config = {
  rounds : int;
  tuples_per_round : int;
  punct_lag : int;
  trace_seed : int;
}

let default_trace_config =
  { rounds = 50; tuples_per_round = 1; punct_lag = 0; trace_seed = 3 }

let round_trace_defs defs config =
  if config.rounds < 1 || config.tuples_per_round < 1 || config.punct_lag < 0
  then invalid_arg "Synth.round_trace: bad configuration";
  let schemes =
    List.concat_map
      (fun def -> List.map (fun sch -> (def, sch)) (Stream_def.schemes def))
      defs
  in
  let tuple_for def key =
    let schema = Stream_def.schema def in
    Tuple.make schema
      (List.map
         (fun a -> key_value (Stream_def.name def) a key)
         (Schema.attributes schema))
  in
  let data_round r =
    List.concat_map
      (fun i ->
        let key = (r * config.tuples_per_round) + i in
        List.map (fun def -> Element.Data (tuple_for def key)) defs)
      (List.init config.tuples_per_round Fun.id)
  in
  let punct_round r =
    List.concat_map
      (fun i ->
        let key = (r * config.tuples_per_round) + i in
        List.map
          (fun (def, sch) ->
            let schema = Stream_def.schema def in
            Element.Punct
              (Scheme.instantiate sch
                 (List.map
                    (fun a ->
                      ( a,
                        key_value (Stream_def.name def)
                          (Schema.attr_at schema (Schema.attr_index schema a))
                          key ))
                    (Scheme.punctuatable_attrs sch))))
          schemes)
      (List.init config.tuples_per_round Fun.id)
  in
  let rec rounds r acc =
    if r >= config.rounds + config.punct_lag + 1 then List.rev acc
    else
      let acc = if r < config.rounds then List.rev_append (data_round r) acc else acc in
      let pr = r - config.punct_lag in
      let acc =
        if pr >= 0 && pr < config.rounds then
          List.rev_append (punct_round pr) acc
        else acc
      in
      rounds (r + 1) acc
  in
  rounds 0 []

let round_trace query config = round_trace_defs (Cjq.stream_defs query) config

let random_trace query ~elements_per_stream ~value_range ~punct_prob ~seed =
  let rng = Rng.create ~seed in
  let per_stream =
    List.map
      (fun def ->
        let schema = Stream_def.schema def in
        let tuples =
          List.init elements_per_stream (fun _ ->
              Tuple.make schema
                (List.map
                   (fun a ->
                     key_value (Stream_def.name def) a (Rng.int rng value_range))
                   (Schema.attributes schema)))
        in
        (* For each scheme, place a punctuation for each occurring value
           combination right after its last occurrence; all schemes are
           resolved against the data indices first, then the stream is
           rebuilt once. *)
        let insert_after = Hashtbl.create 32 in
        List.iter
          (fun sch ->
            let attrs = Scheme.punctuatable_attrs sch in
            if Scheme.ordered_attrs sch <> [] then ()
            else
            let combo_of tup =
              List.map (fun a -> (a, Tuple.get_named tup a)) attrs
            in
            let last_occurrence = Hashtbl.create 32 in
            List.iteri
              (fun i tup -> Hashtbl.replace last_occurrence (combo_of tup) i)
              tuples;
            Hashtbl.iter
              (fun combo i ->
                if Rng.float rng < punct_prob then
                  Hashtbl.add insert_after i
                    (Element.Punct (Scheme.instantiate sch combo)))
              last_occurrence)
          (Stream_def.schemes def);
        List.concat
          (List.mapi
             (fun i tup -> Element.Data tup :: Hashtbl.find_all insert_after i)
             tuples))
      (Cjq.stream_defs query)
  in
  Streams.Trace.interleave ~seed (List.map (fun tr -> (tr, 1)) per_stream)

(* Direct nested-loop enumeration over per-stream tuple lists; joining
   through Relation.join would lose stream identities in the intermediate
   schemas, so atoms are checked against the original tuples instead. *)
let brute_force_results query trace =
  let preds = Cjq.predicates query in
  let tuples_of name =
    List.filter_map
      (fun e ->
        match e with
        | Element.Data tup
          when Schema.stream_name (Tuple.schema tup) = name ->
            Some tup
        | _ -> None)
      trace
  in
  let extend partials name =
    let candidates = tuples_of name in
    List.concat_map
      (fun assignment ->
        List.filter_map
          (fun tup ->
            let compatible =
              List.for_all
                (fun atom ->
                  if not (Predicate.involves atom name) then true
                  else
                    let other, _ = Predicate.other_side atom name in
                    match List.assoc_opt other assignment with
                    | Some other_tup -> Predicate.eval atom tup other_tup
                    | None -> true)
                preds
            in
            if compatible then Some ((name, tup) :: assignment) else None)
          candidates)
      partials
  in
  List.fold_left extend [ [] ]
    (List.map Stream_def.name (Cjq.stream_defs query))
  |> List.length
