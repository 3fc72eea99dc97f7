open Relational
module Scheme = Streams.Scheme
module Element = Streams.Element
module Cjq = Query.Cjq
module Plan = Query.Plan

type node =
  | Leaf of { stream : string; schema : Schema.t; schemes : Scheme.t list }
  | Inner of {
      op : Operator.t;
      children : node list;
      leafset : string list;
      schemes : Scheme.t list;  (** derived schemes of this output *)
    }

module Config = struct
  type t = {
    policy : Purge_policy.t;
    punct_lifespan : Core.Punct_purge.lifespan option;
    punct_partner_purge : bool;
    telemetry : Telemetry.t;
    contract : Contract.t option;
    op_prefix : string;
  }

  let default =
    {
      policy = Purge_policy.Eager;
      punct_lifespan = None;
      punct_partner_purge = false;
      telemetry = Telemetry.null;
      contract = None;
      op_prefix = "";
    }

  let make ?(policy = default.policy) ?punct_lifespan
      ?(punct_partner_purge = default.punct_partner_purge)
      ?(telemetry = default.telemetry) ?contract
      ?(op_prefix = default.op_prefix) () =
    {
      policy;
      punct_lifespan;
      punct_partner_purge;
      telemetry;
      contract;
      op_prefix;
    }
end

type compiled = {
  root : node;
  all_ops : Operator.t list;
  cfg : Config.t;
  unreachable : (string * string list) list;
      (* per operator: inputs whose state fails the GPG purge-reachability
         check — the watchdog's static diagnosis *)
}

let node_name = function
  | Leaf l -> l.stream
  | Inner i -> i.op.Operator.name

let node_schema = function
  | Leaf l -> l.schema
  | Inner i -> i.op.Operator.out_schema

let node_schemes = function
  | Leaf l -> l.schemes
  | Inner i -> i.schemes

let node_leafset = function
  | Leaf l -> [ l.stream ]
  | Inner i -> i.leafset

(* The name attribute [attr] of base stream [s] carries in the output of
   [node]: unqualified at a leaf, qualified once inside any composite. *)
let attr_in_node node s attr =
  match node with
  | Leaf _ -> attr
  | Inner _ -> Schema.qualify_attr ~origin:s attr

let rec register_leaves ct = function
  | Leaf l ->
      List.iter
        (fun sch -> Contract.register_source ct ~stream:l.stream sch)
        l.schemes
  | Inner i -> List.iter (register_leaves ct) i.children

let compile ?(config = Config.default) query plan =
  let {
    Config.policy;
    punct_lifespan;
    punct_partner_purge;
    telemetry;
    contract;
    op_prefix;
  } =
    config
  in
  Plan.validate plan query;
  let preds = Cjq.predicates query in
  let counter = ref 0 in
  let ops = ref [] in
  let unreachable = ref [] in
  let rec build = function
    | Plan.Leaf s ->
        let def = Cjq.def query s in
        Leaf
          {
            stream = s;
            schema = Streams.Stream_def.schema def;
            schemes = Streams.Stream_def.schemes def;
          }
    | Plan.Join children ->
        let nodes = List.map build children in
        incr counter;
        let op_name = Printf.sprintf "%sJ%d" op_prefix !counter in
        let owner s =
          List.find (fun n -> List.mem s (node_leafset n)) nodes
        in
        (* Lift every query atom crossing two children to input-level
           names; atoms internal to one child were handled below. *)
        let lifted =
          List.filter_map
            (fun atom ->
              let s1, s2 = Predicate.streams_of atom in
              match owner s1, owner s2 with
              | n1, n2 when node_name n1 = node_name n2 -> None
              | n1, n2 ->
                  Some
                    (Predicate.atom (node_name n1)
                       (attr_in_node n1 s1 (Predicate.attr_on atom s1))
                       (node_name n2)
                       (attr_in_node n2 s2 (Predicate.attr_on atom s2)))
              | exception Not_found -> None)
            preds
        in
        let inputs =
          List.map
            (fun n ->
              {
                Mjoin.name = node_name n;
                schema = node_schema n;
                schemes = node_schemes n;
              })
            nodes
        in
        let op =
          match nodes, Cjq.kind query with
          | ( [ a; b ],
              ((Cjq.Left_outer | Cjq.Right_outer | Cjq.Full_outer | Cjq.Anti)
               as kind) ) ->
              (* Outer kinds are binary (Cjq.make enforces it), and which
                 input is "left" is semantic: the first declared stream.
                 Plan.join sorts its children, so recover the declared
                 order here. *)
              let left_name = List.hd (Cjq.stream_names query) in
              let a, b =
                if node_name a = left_name then (a, b) else (b, a)
              in
              let side n =
                {
                  Outer_join.name = node_name n;
                  schema = node_schema n;
                  schemes = node_schemes n;
                }
              in
              let semantics =
                match kind with
                | Cjq.Left_outer -> Outer_join.Left
                | Cjq.Right_outer -> Outer_join.Right
                | Cjq.Full_outer -> Outer_join.Full
                | _ -> Outer_join.Anti
              in
              Outer_join.create ~name:op_name ~telemetry ?contract ~semantics
                ~left:(side a) ~right:(side b) ~predicates:lifted ()
          | _, _ ->
              Mjoin.create ~name:op_name ~policy ?punct_lifespan
                ~punct_partner_purge ~telemetry ?contract ~inputs
                ~predicates:lifted ()
        in
        let op = Telemetry.wrap_op telemetry op in
        ops := op :: !ops;
        (* Derived schemes of this output: lift each input's schemes when
           that input's state is purgeable inside this operator. *)
        let input_names = List.map node_name nodes in
        let scheme_set =
          Scheme.Set.of_list (List.concat_map node_schemes nodes)
        in
        let gpg = Core.Gpg.of_streams input_names lifted scheme_set in
        unreachable :=
          ( op_name,
            List.filter
              (fun n ->
                not (Core.Gpg.reaches_all gpg (Core.Block.singleton n)))
              input_names )
          :: !unreachable;
        let derived =
          List.concat_map
            (fun n ->
              if Core.Gpg.reaches_all gpg (Core.Block.singleton (node_name n))
              then
                List.filter_map
                  (fun sch ->
                    let attrs =
                      List.map
                        (Schema.qualify_attr ~origin:(node_name n))
                        (Scheme.punctuatable_attrs sch)
                    in
                    match Scheme.of_attrs op.Operator.out_schema attrs with
                    | sch' -> Some sch'
                    | exception _ -> None)
                  (node_schemes n)
              else [])
            nodes
        in
        Inner
          {
            op;
            children = nodes;
            leafset = List.concat_map node_leafset nodes;
            schemes = derived;
          }
  in
  let root = build plan in
  Option.iter (fun ct -> register_leaves ct root) contract;
  { root; all_ops = List.rev !ops; cfg = config;
    unreachable = List.rev !unreachable }

let operators ~c = c.all_ops
let config c = c.cfg
let telemetry c = c.cfg.Config.telemetry
let contract c = c.cfg.Config.contract

(* Arm a (possibly different) contract's stall tracking with this tree's
   leaf sources — the sharded driver tracks stalls on its own contract
   while the per-shard contracts handle late data inside the workers. *)
let register_sources ct c = register_leaves ct c.root

let unreachable_inputs c op_name =
  match List.assoc_opt op_name c.unreachable with Some l -> l | None -> []

let output_schema c = node_schema c.root

let derived_schemes c = node_schemes c.root

let total c =
  Operator.sum_states
    (List.map (fun (op : Operator.t) -> op.state ()) c.all_ops)

let total_data_state c = (total c).data
let total_punct_state c = (total c).puncts
let total_index_state c = (total c).index
let total_state_bytes c = (total c).bytes

let part c = { Grid.ops = c.all_ops; unreachable = unreachable_inputs c }
let state_breakdown c = Grid.breakdown [ part c ]

type result = {
  outputs : Element.t list;
  metrics : Metrics.t;
  consumed : int;
  emitted : int;
}

(* Push a run of raw-stream elements through the tree. A run of
   consecutive elements owned by leaf children — any mix of their streams —
   becomes a single [push] on this node's operator: leaves are identity
   passthroughs and the operator dispatches per element by stream name
   internally, so nothing requires splitting by stream (splitting per
   child would degrade flat plans, whose traces alternate streams, to runs
   of one). Elements owned by an Inner child are reduced by that child
   first (recursively, grouped by consecutive ownership) and the child's
   outputs form their own run. Data outputs do not depend on where the
   input is cut; punctuation outputs may be grouped per run as
   {!Operator.t.push} allows. *)
let rec feed_batch node (elements : Element.t array) =
  match node with
  | Leaf l ->
      List.filter
        (fun e -> String.equal l.stream (Element.stream_name e))
        (Array.to_list elements)
  | Inner i ->
      let acc = ref [] in
      let add outs = List.iter (fun e -> acc := e :: !acc) outs in
      let buf = ref [] in
      (* pending leaf-owned run, reversed *)
      let flush_buf () =
        match !buf with
        | [] -> ()
        | xs ->
            buf := [];
            add (i.op.Operator.push (Array.of_list (List.rev xs)))
      in
      let n = Array.length elements in
      let j = ref 0 in
      while !j < n do
        let e = elements.(!j) in
        let stream = Element.stream_name e in
        if not (List.mem stream i.leafset) then incr j
        else
          match
            List.find (fun ch -> List.mem stream (node_leafset ch)) i.children
          with
          | Leaf _ ->
              buf := e :: !buf;
              incr j
          | Inner _ as child ->
              flush_buf ();
              let leafset = node_leafset child in
              let run = ref [ e ] in
              incr j;
              let continue_run = ref true in
              while !continue_run && !j < n do
                let e' = elements.(!j) in
                if List.mem (Element.stream_name e') leafset then begin
                  run := e' :: !run;
                  incr j
                end
                else continue_run := false
              done;
              (match feed_batch child (Array.of_list (List.rev !run)) with
              | [] -> ()
              | reduced -> add (i.op.Operator.push (Array.of_list reduced)))
      done;
      flush_buf ();
      List.rev !acc

(* Drain deferred purge/propagation work bottom-up: each child's flush
   outputs reach this node's operator as one run. *)
let rec final_flush node =
  match node with
  | Leaf _ -> []
  | Inner i ->
      let from_children =
        List.concat_map
          (fun child ->
            match final_flush child with
            | [] -> []
            | outs -> i.op.Operator.push (Array.of_list outs))
          i.children
      in
      from_children @ i.op.Operator.flush ()

let feed_batch c elements = feed_batch c.root elements

let flush_tree c = final_flush c.root

let run ?(sample_every = 100) ?batch ?sink ?(label = "run") ?exporter c
    elements =
  let telemetry = c.cfg.Config.telemetry in
  let contract = c.cfg.Config.contract in
  let grid = Grid.start ?exporter ~label telemetry in
  let parts = [ part c ] in
  let outputs = ref [] in
  let emitted = ref 0 in
  (* [emitted] counts the data tuples that actually reach the outputs —
     when a sink operator filters or aggregates, it is counted *after* the
     sink, not before (the pre-sink count over-reported under filtering
     sinks). *)
  let accept outs =
    List.iter
      (fun e ->
        match sink with
        | Some (op : Operator.t) ->
            List.iter
              (fun e' ->
                if Element.is_data e' then incr emitted;
                outputs := e' :: !outputs)
              (op.push [| e |])
        | None ->
            if Element.is_data e then incr emitted;
            outputs := e :: !outputs)
      outs
  in
  (* Contract checks run on the sampling grid whether or not telemetry is
     enabled: stall detection and budget enforcement are behaviour, not
     instrumentation. With no contract these are no-ops and the run is
     byte-identical to the pre-contract engine. *)
  let contract_checks ~tick =
    match contract with
    | None -> ()
    | Some ct ->
        ignore
          (Contract.check_stalls ct
             ~emit:(fun e -> Telemetry.emit telemetry e)
             ?watchdog:(Telemetry.watchdog telemetry) ~tick ());
        ignore
          (Contract.enforce_budget ct ~telemetry ~tick
             ~bytes_now:(fun () -> total_state_bytes c)
             ())
  in
  (* The grid cuts runs of up to [batch] elements (one without it). The
     element clock jumps to the run-end tick before the feed — within-run
     events share it. *)
  let cap = match batch with None -> 1 | Some b -> max 1 b in
  let consumed =
    Grid.feed ~sample_every ~cap elements
      ~run:(fun ~base arr ->
        Telemetry.set_clock telemetry (base + Array.length arr);
        (match contract with
        | Some ct ->
            Array.iteri
              (fun k e -> Contract.note_element ct ~tick:(base + k + 1) e)
              arr
        | None -> ());
        accept (feed_batch c arr))
      ~point:(fun ~tick ->
        contract_checks ~tick;
        Grid.sample grid ~tick ~emitted:!emitted parts;
        Grid.publish grid ~tick)
  in
  accept (final_flush c.root);
  Grid.finish grid ~tick:consumed ~emitted:!emitted parts;
  {
    outputs = List.rev !outputs;
    metrics = Grid.metrics grid;
    consumed;
    emitted = !emitted;
  }

(* An order-insensitive digest of a run's data-tuple outputs: render each
   tuple as its sorted [attr=value] pairs, sort the renderings, hash the
   concatenation. Two runs emitted the same result multiset iff the hexes
   agree — permutation-proof, so a sharded run (whose merge order may
   interleave flush-time results differently) can be compared byte-for-byte
   against a sequential one. Rendering by attribute name (not positional
   value order) additionally makes the digest plan-shape-invariant: a
   multi-query residual plan concatenates the same columns in a different
   order than the independent flat plan, yet both digests agree. Output
   punctuations are excluded: a broadcast punctuation is re-propagated by
   every shard holding it, so punctuation outputs are a delivery artifact,
   not part of the query answer. *)
let render_data = function
  | Element.Punct _ -> None
  | Element.Data t ->
      let schema = Tuple.schema t in
      Some
        (Schema.attributes schema
        |> List.mapi (fun i (a : Schema.attribute) ->
               a.Schema.name ^ "=" ^ Relational.Value.to_string (Tuple.get t i))
        |> List.sort String.compare
        |> String.concat ",")

let output_hash outputs =
  let renderings =
    List.filter_map render_data outputs |> List.sort String.compare
  in
  Digest.to_hex (Digest.string (String.concat "\n" renderings))

(* --- report ----------------------------------------------------------- *)

let report ?(meta = []) c (r : result) =
  let contract_meta =
    match c.cfg.Config.contract with
    | None -> []
    | Some ct -> [ ("contract", Obs.Json.Obj (Contract.meta_counters [ ct ])) ]
  in
  Grid.report
    ~meta:
      (meta
      @ [
          ("consumed", Obs.Json.Int r.consumed);
          ("emitted", Obs.Json.Int r.emitted);
        ]
      @ contract_meta)
    ~registry:(Telemetry.registry c.cfg.Config.telemetry)
    ~alarms:(Telemetry.alarms c.cfg.Config.telemetry)
    [ part c ] r.metrics
