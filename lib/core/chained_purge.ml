open Relational
module Scheme = Streams.Scheme
module Punctuation = Streams.Punctuation

type pin = { attr : string; source : string; source_attr : string }

type step = { target : string; scheme : Scheme.t; pins : pin list }

type plan = { root : string; steps : step list }

let derive_in edges names preds ~root =
  let source_attr_for ~target ~attr ~source =
    let atom =
      List.find
        (fun a ->
          Predicate.involves a target
          && Predicate.involves a source
          && String.equal (Predicate.attr_on a target) attr)
        preds
    in
    Predicate.attr_on atom source
  in
  let rec fixpoint pinned steps =
    let candidate =
      List.find_opt
        (fun (e : Gpg.gedge) ->
          (not (List.mem e.stream pinned))
          && List.for_all
               (fun (_, blocks) ->
                 List.exists
                   (fun b ->
                     match Block.streams b with
                     | [ s ] -> List.mem s pinned
                     | _ -> false)
                   blocks)
               e.sources)
        edges
    in
    match candidate with
    | None -> (pinned, List.rev steps)
    | Some e ->
        let pins =
          List.map
            (fun (attr, blocks) ->
              let source =
                List.concat_map Block.streams blocks
                |> List.find (fun s -> List.mem s pinned)
              in
              { attr; source; source_attr = source_attr_for ~target:e.stream ~attr ~source })
            e.sources
        in
        fixpoint (e.stream :: pinned)
          ({ target = e.stream; scheme = e.scheme; pins } :: steps)
  in
  let pinned, steps = fixpoint [ root ] [] in
  if List.length pinned = List.length names then Some { root; steps }
  else None

let derive names preds schemes ~root =
  derive_in (Gpg.edges (Gpg.of_streams names preds schemes)) names preds ~root

let derive_all names preds schemes =
  let edges = Gpg.edges (Gpg.of_streams names preds schemes) in
  List.map (fun root -> (root, derive_in edges names preds ~root)) names

(* Cartesian product of per-pin value choices. *)
let combos_of per_pin =
  List.fold_right
    (fun (attr, values) acc ->
      List.concat_map
        (fun v -> List.map (fun rest -> (attr, v) :: rest) acc)
        values)
    per_pin [ [] ]

(* δ_attr over a tuple list, first occurrence first (as
   {!Relation.distinct_project}). *)
let distinct_values tuples attr =
  match tuples with
  | [] -> []
  | [ t ] -> [ Tuple.get_named t attr ]
  | t :: _ ->
      let i = Schema.attr_index (Tuple.schema t) attr in
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun tup ->
          let v = Tuple.get tup i in
          if Hashtbl.mem seen v then None
          else begin
            Hashtbl.add seen v ();
            Some v
          end)
        tuples

type joinable = step -> (pin * Value.t list) list -> Tuple.t list

let joinable_in states step per_pin =
  Relation.filter
    (fun x ->
      List.for_all
        (fun (pin, values) ->
          let v = Tuple.get_named x pin.attr in
          List.exists (Value.equal v) values)
        per_pin)
    (states step.target)
  |> Relation.tuples

let walk plan ~joinable ~root_tuple ~on_step =
  let pinned = Hashtbl.create 8 in
  Hashtbl.add pinned plan.root [ root_tuple ];
  let rec go = function
    | [] -> ()
    | step :: later ->
        let per_pin =
          List.map
            (fun pin ->
              let tuples = Hashtbl.find pinned pin.source in
              (pin, distinct_values tuples pin.source_attr))
            step.pins
        in
        let combos =
          combos_of (List.map (fun (pin, vs) -> (pin.attr, vs)) per_pin)
          (* an empty value set yields no combos: the chain is already cut *)
          |> List.filter (fun c -> c <> [])
        in
        on_step step combos;
        (* T_t[Υ_target]: joinable tuples of the target under the product
           approximation of the chain semijoin — only needed when a later
           step pins from it. *)
        if
          List.exists
            (fun s -> List.exists (fun p -> p.source = step.target) s.pins)
            later
        then Hashtbl.replace pinned step.target (joinable step per_pin);
        go later
  in
  go plan.steps

let required_punctuations plan ~states ~root_tuple =
  let acc = ref [] in
  walk plan ~joinable:(joinable_in states) ~root_tuple
    ~on_step:(fun step combos ->
      let puncts = List.map (Scheme.instantiate step.scheme) combos in
      acc := (step.target, puncts) :: !acc);
  List.rev !acc

exception Not_purgeable

let tuple_purgeable plan ~joinable ~covered ~root_tuple =
  try
    walk plan ~joinable ~root_tuple ~on_step:(fun step combos ->
        let schema = Scheme.schema step.scheme in
        List.iter
          (fun combo ->
            let bindings =
              List.map (fun (a, v) -> (Schema.attr_index schema a, v)) combo
            in
            if not (covered ~stream:step.target bindings) then
              raise Not_purgeable)
          combos);
    true
  with Not_purgeable -> false

let pp_plan ppf plan =
  let pp_step ppf s =
    Fmt.pf ppf "@[collect %a from %s pinned by %a@]" Scheme.pp s.scheme
      s.target
      (Fmt.list ~sep:Fmt.comma (fun ppf p ->
           Fmt.pf ppf "%s.%s<-%s.%s" s.target p.attr p.source p.source_attr))
      s.pins
  in
  Fmt.pf ppf "@[<v2>purge plan for %s:@,%a@]" plan.root
    (Fmt.list ~sep:Fmt.cut pp_step)
    plan.steps
