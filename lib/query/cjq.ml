open Relational
module Stream_def = Streams.Stream_def
module Scheme = Streams.Scheme

type join_kind = Inner | Left_outer | Right_outer | Full_outer | Anti

let kind_to_string = function
  | Inner -> "inner"
  | Left_outer -> "left"
  | Right_outer -> "right"
  | Full_outer -> "full"
  | Anti -> "anti"

let kind_of_string = function
  | "inner" -> Some Inner
  | "left" -> Some Left_outer
  | "right" -> Some Right_outer
  | "full" -> Some Full_outer
  | "anti" -> Some Anti
  | _ -> None

type t = {
  defs : Stream_def.t list;
  preds : Predicate.t;
  join_graph : Join_graph.t;
  kind : join_kind;
}

exception Invalid of string

let invalid fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

let make ?(kind = Inner) defs preds =
  let names = List.map Stream_def.name defs in
  if List.length defs < 2 then
    invalid "a continuous join query needs at least two streams";
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid "duplicate stream in query";
  let schema_of name =
    match List.find_opt (fun d -> Stream_def.name d = name) defs with
    | Some d -> Stream_def.schema d
    | None -> invalid "predicate references undeclared stream %S" name
  in
  List.iter
    (fun a ->
      let s1, s2 = Predicate.streams_of a in
      let check_attr s =
        let schema = schema_of s in
        let attr = Predicate.attr_on a s in
        if not (Schema.mem schema attr) then
          invalid "stream %s has no attribute %s (in %a)" s attr
            Predicate.pp_atom a;
        (Schema.attr_at schema (Schema.attr_index schema attr)).Schema.ty
      in
      let t1 = check_attr s1 and t2 = check_attr s2 in
      if t1 <> t2 then
        invalid "type mismatch in %a: %s vs %s" Predicate.pp_atom a
          (Value.ty_to_string t1) (Value.ty_to_string t2))
    preds;
  let join_graph = Join_graph.make names preds in
  if not (Join_graph.is_connected join_graph) then
    invalid "join graph is not connected (cross product)";
  (* Outer/anti semantics give the two sides distinct roles (preserved vs
     probed), so they are defined for binary queries only; the first
     declared stream is the left side. *)
  if kind <> Inner && List.length defs <> 2 then
    invalid "%s join semantics requires exactly two streams"
      (kind_to_string kind);
  { defs; preds; join_graph; kind }

let kind t = t.kind
let stream_defs t = t.defs

let union_defs queries =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun q ->
      List.filter
        (fun def ->
          let name = Stream_def.name def in
          match Hashtbl.find_opt seen name with
          | None ->
              Hashtbl.add seen name (Stream_def.schema def);
              true
          | Some schema when Schema.equal schema (Stream_def.schema def) ->
              false
          | Some _ ->
              invalid_arg
                (Printf.sprintf
                   "Cjq.union_defs: stream %S declared with conflicting schemas"
                   name))
        (stream_defs q))
    queries

let stream_names t = List.map Stream_def.name t.defs
let n_streams t = List.length t.defs
let predicates t = t.preds

let def t name =
  match List.find_opt (fun d -> Stream_def.name d = name) t.defs with
  | Some d -> d
  | None -> invalid "query has no stream %S" name

let schema_of t name = Stream_def.schema (def t name)
let scheme_set t = Stream_def.scheme_set t.defs
let join_graph t = t.join_graph

let restrict t names =
  let defs = List.filter (fun d -> List.mem (Stream_def.name d) names) t.defs in
  let keep a =
    let s1, s2 = Predicate.streams_of a in
    List.mem s1 names && List.mem s2 names
  in
  make defs (List.filter keep t.preds)

let pp ppf t =
  Fmt.pf ppf "@[<v>CJQ%s over {%a}@,where %a@]"
    (match t.kind with
    | Inner -> ""
    | k -> Printf.sprintf " [%s]" (kind_to_string k))
    Fmt.(list ~sep:comma string)
    (stream_names t) Predicate.pp t.preds
