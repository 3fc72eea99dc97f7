open Relational
module Element = Streams.Element
module Punctuation = Streams.Punctuation
module Cjq = Query.Cjq

type route = Local of int | Broadcast

type stream_info = {
  schema : Schema.t;
  attr : string;
  attr_idx : int;  (** index of [attr] in [schema] *)
}

type t = {
  shards : int;
  exact : bool;
  classes : (string * string) list list;
  by_stream : (string, stream_info) Hashtbl.t;
}

(* Equivalence closure of the equi-join atoms over (stream, attr) pairs:
   union-find with path compression, then grouped and sorted so the
   result is deterministic. *)
let classes_of_atoms preds =
  let parent : (string * string, string * string) Hashtbl.t =
    Hashtbl.create 16
  in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None ->
        Hashtbl.add parent x x;
        x
    | Some p when p = x -> x
    | Some p ->
        let r = find p in
        Hashtbl.replace parent x r;
        r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then
      (* smaller representative wins, for determinism *)
      if ra < rb then Hashtbl.replace parent rb ra
      else Hashtbl.replace parent ra rb
  in
  List.iter
    (fun atom ->
      let s1, s2 = Predicate.streams_of atom in
      union (s1, Predicate.attr_on atom s1) (s2, Predicate.attr_on atom s2))
    preds;
  let members = Hashtbl.fold (fun x _ acc -> x :: acc) parent [] in
  let groups : (string * string, (string * string) list) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun x ->
      let r = find x in
      let existing = Option.value ~default:[] (Hashtbl.find_opt groups r) in
      Hashtbl.replace groups r (x :: existing))
    members;
  Hashtbl.fold (fun _ cls acc -> List.sort compare cls :: acc) groups []
  |> List.sort compare

let streams_of_class cls = List.sort_uniq compare (List.map fst cls)

(* The generalized constructor: a stream set (with declared schemes) plus
   an atom set, not necessarily from one query — the multi-query driver
   passes the union over every registered query. *)
let create_defs ~shards defs preds =
  if shards <= 0 then invalid_arg "Shard_router.create: shards must be positive";
  let classes = classes_of_atoms preds in
  let stream_names = List.map Streams.Stream_def.name defs in
  let def_of s = Streams.Stream_def.find defs s in
  (* (stream, attr) pairs pinned by a *single-attribute* scheme: a
     punctuation instantiated from such a scheme is a pure value
     punctuation on that attribute — the only kind [route_punct] can send
     to one owner. Routing choices prefer these so the stream's own
     punctuations stay local instead of triggering a purge round on every
     shard. *)
  let punctuated =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun sch ->
            match Streams.Scheme.punctuatable_attrs sch with
            | [ a ] -> Some (s, a)
            | _ -> None)
          (Streams.Stream_def.schemes (def_of s)))
      stream_names
  in
  let punct_score cls =
    List.length (List.filter (fun m -> List.mem m punctuated) cls)
  in
  (* A class spanning every stream makes the partitioning exact; among
     several, take the most punctuation-aligned (ties: first, the classes
     being sorted, so the choice is deterministic). *)
  let spanning =
    List.filter
      (fun cls ->
        List.for_all (fun s -> List.mem s (streams_of_class cls)) stream_names)
      classes
  in
  let routing_class =
    List.fold_left
      (fun best cls ->
        match best with
        | None -> Some cls
        | Some b -> if punct_score cls > punct_score b then Some cls else best)
      None spanning
  in
  let exact = routing_class <> None in
  let by_stream = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let chosen =
        match routing_class with
        | Some cls -> List.assoc_opt s cls
        | None -> (
            (* No spanning class (a cyclic query): each stream routes
               independently — on its punctuated join attribute when it
               has one, so its value punctuations go to one shard, else
               on its smallest join attribute. Matches still co-locate
               whenever the workload is key-aligned. *)
            let join_attrs =
              List.concat classes
              |> List.filter_map (fun (s', a) ->
                     if s' = s then Some a else None)
              |> List.sort_uniq compare
            in
            match
              List.filter (fun a -> List.mem (s, a) punctuated) join_attrs
            with
            | a :: _ -> Some a
            | [] -> ( match join_attrs with a :: _ -> Some a | [] -> None))
      in
      match chosen with
      | None -> () (* no join attribute: cannot happen for a valid CJQ *)
      | Some attr ->
          let schema = Streams.Stream_def.schema (def_of s) in
          Hashtbl.replace by_stream s
            { schema; attr; attr_idx = Schema.attr_index schema attr })
    stream_names;
  { shards; exact; classes; by_stream }

let create ~shards query =
  create_defs ~shards (Cjq.stream_defs query) (Cjq.predicates query)

(* Union of the registered queries' streams and atoms; a stream name
   declared with two different schemas is a registry-level conflict the
   driver must reject before routing. *)
let create_multi ~shards queries =
  if queries = [] then invalid_arg "Shard_router.create_multi: no queries";
  let defs = Cjq.union_defs queries in
  let preds =
    List.sort_uniq Predicate.atom_compare
      (List.concat_map Cjq.predicates queries)
  in
  create_defs ~shards defs preds

let shards t = t.shards
let exact t = t.exact
let classes t = t.classes

(* Inner joins tolerate key-aligned (approximate) partitioning: a
   mis-partitioned input loses matches but never invents results. The
   outer/anti kinds do not — "unmatched" is a negative claim, and a tuple
   separated from its partner would be released as a spurious unmatched
   result. They demand exact partitioning (which their binary equi-join
   shape always provides: every atom links the two streams, so one
   equivalence class spans both). *)
let sound_for t query =
  match Cjq.kind query with Cjq.Inner -> true | _ -> t.exact

(* Exactness restricted to a stream subset: some equivalence class holds
   every subset stream's *chosen* routing attribute, so all potential
   matches within the subset co-locate regardless of input alignment. *)
let exact_for t streams =
  streams <> []
  && List.exists
       (fun cls ->
         List.for_all
           (fun s ->
             match Hashtbl.find_opt t.by_stream s with
             | Some info -> List.mem (s, info.attr) cls
             | None -> false)
           streams)
       t.classes

(* Sharing raises the stakes: one mis-routed element would skew every
   subscriber at once, and outer-kind subscribers turn lost co-location
   into spurious unmatched emissions. Inner subscribers keep the
   single-query tolerance; every other kind must be exact on its own
   stream set. *)
let sound_for_shared t ~subscribers =
  List.for_all
    (fun q ->
      match Cjq.kind q with
      | Cjq.Inner -> true
      | _ -> exact_for t (Cjq.stream_names q))
    subscribers

let routing_attr t stream =
  Option.map
    (fun info -> info.attr)
    (Hashtbl.find_opt t.by_stream stream)

let owner t v = abs (Value.hash v) mod t.shards

let route_data t tuple =
  let stream = Schema.stream_name (Tuple.schema tuple) in
  match Hashtbl.find_opt t.by_stream stream with
  | None -> Broadcast (* unknown stream: every shard will ignore it *)
  | Some info -> Local (owner t (Tuple.get tuple info.attr_idx))

let route_punct t p =
  let stream = Schema.stream_name (Punctuation.schema p) in
  match Hashtbl.find_opt t.by_stream stream with
  | None -> Broadcast
  | Some info -> (
      (* Only a pure value punctuation on exactly the routing attribute
         pins all its matchable tuples to one shard; anything else can
         cover state anywhere. *)
      match Punctuation.constraints p with
      | [ (i, Punctuation.Const v) ] when i = info.attr_idx ->
          Local (owner t v)
      | _ -> Broadcast)

let route_element t = function
  | Element.Data tuple -> route_data t tuple
  | Element.Punct p -> route_punct t p
