open Relational
module Scheme = Streams.Scheme
module Punctuation = Streams.Punctuation
module Element = Streams.Element

type input = {
  name : string;
  schema : Schema.t;
  schemes : Scheme.t list;
}

let scheme_set_of inputs =
  Scheme.Set.of_list (List.concat_map (fun i -> i.schemes) inputs)

let purge_plans ~inputs ~predicates =
  Core.Chained_purge.derive_all
    (List.map (fun i -> i.name) inputs)
    predicates (scheme_set_of inputs)

(* Per-input runtime state. *)
type slot = {
  input : input;
  state : Join_state.t;
  puncts : Punct_store.t;
  join_idxs : int array;
      (* attribute positions of this input appearing in any join predicate:
         a Null in one of them makes the tuple dead on arrival *)
}

(* A purge plan compiled against the operator's slots. *)
type cpin = {
  pos : int;  (** pinned attribute, in the step target's schema *)
  src : int;  (** slot supplying the pin's values *)
  src_pos : int;  (** the supplying attribute, in [src]'s schema *)
  src_step : int;  (** step whose target is [src]; -1 for the root *)
  src_index : Join_state.handle option;  (** existing index on [src_pos] *)
}

type cstep = {
  step : Core.Chained_purge.step;
  target : int;
  cpins : cpin array;  (** in [step.pins] order *)
  keyed : (int * Join_state.handle) option;
      (** a pin whose attribute the target already indexes, and the index *)
}

type cplan = {
  plan : Core.Chained_purge.plan;
  csteps : cstep array;
  step_of : int array;  (** slot -> the step targeting it, or -1 *)
  root_attrs : int list;  (** root positions the chain reads: memo key *)
}

(* Which values of a step's first pin a backward walk follows. *)
type selector = Values of Value.t list | Below of Value.t | All

(* Resolves [plan] against [slots] once the probe programs have built their
   indexes: purge rounds use those and never build one. *)
let compile_plan slots slot_ix (plan : Core.Chained_purge.plan) =
  let schema i = slots.(i).input.schema and state i = slots.(i).state in
  let step_of = Array.make (Array.length slots) (-1) in
  List.iteri
    (fun k (st : Core.Chained_purge.step) -> step_of.(slot_ix st.target) <- k)
    plan.steps;
  let compile_step (step : Core.Chained_purge.step) =
    let target = slot_ix step.target in
    let cpins =
      Array.of_list
        (List.map
           (fun (pin : Core.Chained_purge.pin) ->
             let src = slot_ix pin.source in
             let src_pos = Schema.attr_index (schema src) pin.source_attr in
             {
               pos = Schema.attr_index (schema target) pin.attr;
               src;
               src_pos;
               src_step = step_of.(src);
               src_index = Join_state.find_index (state src) ~attr:src_pos;
             })
           step.pins)
    in
    let rec keyed k =
      if k = Array.length cpins then None
      else
        match Join_state.find_index (state target) ~attr:cpins.(k).pos with
        | Some h -> Some (k, h)
        | None -> keyed (k + 1)
    in
    { step; target; cpins; keyed = keyed 0 }
  in
  let csteps = Array.of_list (List.map compile_step plan.steps) in
  let root_attrs =
    Array.to_list csteps
    |> List.concat_map (fun cs -> Array.to_list cs.cpins)
    |> List.filter_map (fun c -> if c.src_step < 0 then Some c.src_pos else None)
    |> List.sort_uniq Int.compare
  in
  { plan; csteps; step_of; root_attrs }

let create ?(name = "mjoin") ?(policy = Purge_policy.Eager) ?punct_lifespan
    ?(punct_partner_purge = false) ?(telemetry = Telemetry.null) ?contract
    ~inputs ~predicates () =
  if List.length inputs < 2 then
    invalid_arg "Mjoin.create: need at least two inputs";
  let names = List.map (fun i -> i.name) inputs in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Mjoin.create: duplicate input names";
  List.iter
    (fun atom ->
      let s1, s2 = Predicate.streams_of atom in
      if not (List.mem s1 names && List.mem s2 names) then
        invalid_arg
          (Fmt.str "Mjoin.create: predicate %a references unknown input"
             Predicate.pp_atom atom))
    predicates;
  let plans = purge_plans ~inputs ~predicates in
  let slots =
    List.map
      (fun input ->
        let join_idxs =
          List.filter_map
            (fun atom ->
              if Predicate.involves atom input.name then
                Some
                  (Schema.attr_index input.schema
                     (Predicate.attr_on atom input.name))
              else None)
            predicates
          |> List.sort_uniq compare |> Array.of_list
        in
        {
          input;
          state = Join_state.create input.schema;
          puncts = Punct_store.create input.schema;
          join_idxs;
        })
      inputs
    |> Array.of_list
  in
  let slot_tbl = Hashtbl.create 8 in
  Array.iteri (fun i s -> Hashtbl.add slot_tbl s.input.name i) slots;
  let slot_of n = slots.(Hashtbl.find slot_tbl n) in
  let out_schema =
    Schema.concat_all ~stream:name (List.map (fun i -> i.schema) inputs)
  in
  let orders = Probe.orders names predicates in
  let stats = ref Operator.empty_stats in
  (* Chosen once: result-latency spans, punctuation-progress gauges and
     the probe/insert counters are recorded only when a live telemetry
     handle was passed. *)
  let instrumented = Telemetry.enabled telemetry in
  let c_probes = name ^ ".probes" and c_inserts = name ^ ".inserts" in
  let now = ref 0 in
  let pending_puncts = ref 0 in
  (* Global tick of the oldest informative punctuation not yet followed by
     a purge round: the purge-lag baseline. Eager purging fires in the same
     push (or on the same batch boundary), so lag is 0; lazy purging
     defers, so lag reflects the flush cadence (§5's cost axis). *)
  let pending_since = ref None in
  (* The next round re-checks every live tuple: set after a checkpoint
     restore and after a degrade-mode shed, whose removals no round saw. *)
  let full_next = ref false in
  (* Emergency evictor for degraded mode: shed roughly a quarter of each
     input's state per round, oldest first by insertion tick — a
     deterministic order, so a sharded run and its recovery replay shed the
     same tuples. Shed tuples may silence future matches — that is load
     shedding's documented trade. *)
  (match contract with
  | None -> ()
  | Some c ->
      Contract.register_shedder c ~op:name (fun () ->
          let bytes () =
            Array.fold_left
              (fun acc s ->
                acc + (Join_state.mem_stats s.state).Join_state.approx_bytes)
              0 slots
          in
          let before = bytes () in
          let victims =
            Array.fold_left
              (fun acc s ->
                let want = (Join_state.size s.state + 3) / 4 in
                acc + Join_state.evict_oldest s.state ~count:want)
              0 slots
          in
          full_next := true;
          (victims, max 0 (before - bytes ()))));

  (* --- result assembly ---------------------------------------------- *)
  (* Each output tuple is the declared-order concatenation of one tuple
     per input. The layout (per-slot offsets) and the output arity are
     validated here, once, so the per-result path can assemble values with
     blits and skip Tuple.of_array validation. *)
  let n_inputs = Array.length slots in
  let offsets = Array.make n_inputs 0 in
  let total_arity =
    let acc = ref 0 in
    Array.iteri
      (fun i s ->
        offsets.(i) <- !acc;
        acc := !acc + Schema.arity s.input.schema)
      slots;
    !acc
  in
  if total_arity <> Schema.arity out_schema then
    invalid_arg "Mjoin.create: out_schema arity mismatch";
  let progs =
    let names_arr = Array.map (fun s -> s.input.name) slots in
    let schemas = Array.map (fun s -> s.input.schema) slots in
    let states = Array.map (fun s -> s.state) slots in
    Array.map
      (fun s ->
        Probe.compile ~names:names_arr ~schemas ~states
          ~steps:(List.assoc s.input.name orders))
      slots
  in
  (* A result's latency span is the element-clock distance from the
     arrival of its oldest contributing tuple to its emission — the
     end-to-end "how stale is this answer" number the purge-lag histogram
     cannot give (purge lag watches state, this watches results). *)
  let h_latency = name ^ ".result_latency" in
  let probe_from ix tup =
    let tick = Telemetry.now telemetry in
    let results = ref [] in
    Probe.run_compiled progs.(ix) tup ~tick ~emit:(fun asg ticks ->
        let out = Array.make total_arity Value.Null in
        Array.iteri (fun s cand -> Tuple.blit cand out offsets.(s)) asg;
        if instrumented then begin
          let oldest = Array.fold_left min ticks.(0) ticks in
          Telemetry.observe telemetry h_latency (max 0 (tick - oldest))
        end;
        results := Tuple.unsafe_of_array out_schema out :: !results);
    List.rev !results
  in
  (* Punctuation-progress frontier per input: the lowest / highest tick the
     stored punctuations vouch for. Min-merged across shards (the lagging
     shard defines global progress), max-merged for the leading edge. *)
  let update_punct_progress slot =
    match Punct_store.progress slot.puncts with
    | None -> ()
    | Some (lo, hi) ->
        let base = name ^ "." ^ slot.input.name in
        Telemetry.set_gauge ~agg:Obs.Counters.Min telemetry
          (base ^ ".punct_progress_min") lo;
        Telemetry.set_gauge ~agg:Obs.Counters.Max telemetry
          (base ^ ".punct_progress_max") hi
  in

  (* --- purging -------------------------------------------------------- *)
  let covered ~stream bindings =
    Punct_store.covers (slot_of stream).puncts bindings
  in
  let record_purge ~input ~trigger ~victims =
    if victims > 0 && Telemetry.enabled telemetry then begin
      let tick = Telemetry.now telemetry in
      let lag =
        match !pending_since with Some t0 -> max 0 (tick - t0) | None -> 0
      in
      Telemetry.emit telemetry
        (Obs.Event.Purge { tick; op = name; input; trigger; victims; lag });
      Telemetry.incr ~by:victims telemetry (name ^ ".purged_tuples");
      Telemetry.observe telemetry (name ^ ".purge_batch") victims;
      Telemetry.observe ~n:victims telemetry (name ^ ".purge_lag") lag
    end
  in
  (* Incremental rounds. A root tuple found live stays live until one of
     its chain's inputs changes in a way that can free it, so a round
     re-checks only the candidates:
     (a) roots a punctuation stored since the last round may cover, found
         by walking the plan back from the punctuated step;
     (b) roots whose chain lost a tuple since the root was last checked —
         victims are queued to every slot whose plan reads their input, so
         later slots see them in the same round and earlier ones in the
         next, as a slot-ordered scan would;
     (c) roots inserted since the last round.
     Inserts into other inputs only add requirements, and punctuations
     only leave the stores by expiry or purge, so no other tuple can have
     become purgeable. Each re-check walks the plan forward through
     [Join_state], probing an index where a probe program built one. *)
  let cplans =
    Array.map
      (fun slot ->
        Option.map
          (compile_plan slots (Hashtbl.find slot_tbl))
          (List.assoc slot.input.name plans))
      slots
  in
  (* readers.(j): the slots whose plan reads input [j]. *)
  let readers =
    Array.init n_inputs (fun j ->
        List.filter
          (fun i ->
            match cplans.(i) with
            | Some cp -> cp.step_of.(j) >= 0
            | None -> false)
          (List.init n_inputs Fun.id))
  in
  (* (a): informative punctuations since the last round, with their slot.
     (b): per slot, the victims of the inputs it reads since it was last
     checked. (c): per slot, the insertion count when it was last checked. *)
  let new_puncts = ref [] in
  let victims_since = Array.make n_inputs [] in
  let checked_upto = Array.make n_inputs 0 in
  let joinable cp (step : Core.Chained_purge.step) per_pin =
    let cs =
      let rec find k =
        if cp.csteps.(k).step == step then cp.csteps.(k) else find (k + 1)
      in
      find 0
    in
    let values = Array.of_list (List.map snd per_pin) in
    let ok x =
      let rec all k =
        k = Array.length values
        || List.exists (Value.equal (Tuple.get x cs.cpins.(k).pos)) values.(k)
           && all (k + 1)
      in
      all 0
    in
    let state = slots.(cs.target).state in
    match cs.keyed with
    | Some (k, h) ->
        List.concat_map
          (fun v ->
            List.filter_map
              (fun (_, x) -> if ok x then Some x else None)
              (Join_state.probe_handle state h v))
          values.(k)
    | None ->
        Join_state.fold (fun acc (_, x) -> if ok x then x :: acc else acc) [] state
  in
  (* The live tuples of [state] whose attribute [pos] passes [sel]. *)
  let select state pos index sel =
    match (sel, index) with
    | Values vs, Some h -> List.concat_map (Join_state.probe_ids state h) vs
    | _ ->
        let keep =
          match sel with
          | Values [ v ] -> Value.equal v
          | Values vs ->
              let set = Hashtbl.create 16 in
              List.iter (fun v -> Hashtbl.replace set v ()) vs;
              (* Null equals nothing, not even a Null *)
              fun x -> (not (Value.is_null x)) && Hashtbl.mem set x
          | Below b -> fun x -> Value.compare x b < 0
          | All -> fun _ -> true
        in
        let acc = ref [] in
        Join_state.iteri
          (fun id x -> if keep (Tuple.get x pos) then acc := (id, x) :: !acc)
          state;
        !acc
  in
  let distinct vs =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun v ->
        (not (Hashtbl.mem seen v)) && (Hashtbl.add seen v (); true))
      vs
  in
  (* Walk back from step [k] to the root through each step's first pin,
     adding every root id the selected values can reach to [found]. *)
  let rec walk_back cp k sel found =
    let p = cp.csteps.(k).cpins.(0) in
    match select slots.(p.src).state p.src_pos p.src_index sel with
    | [] -> ()
    | hits when p.src_step < 0 ->
        List.iter (fun (id, _) -> Hashtbl.replace found id ()) hits
    | hits ->
        let pos = cp.csteps.(p.src_step).cpins.(0).pos in
        walk_back cp p.src_step
          (Values (distinct (List.map (fun (_, x) -> Tuple.get x pos) hits)))
          found
  in
  let candidates ix cp =
    let found = Hashtbl.create 8 in
    let state = slots.(ix).state in
    for id = checked_upto.(ix) to Join_state.insertions state - 1 do
      Hashtbl.replace found id ()
    done;
    List.iter
      (fun (j, p) ->
        let k = cp.step_of.(j) in
        (* A punctuation covers a step's bindings only if it constrains
           nothing but the step's pinned attributes. *)
        if
          k >= 0
          && List.for_all
               (fun (i, _) ->
                 Array.exists (fun c -> c.pos = i) cp.csteps.(k).cpins)
               (Punctuation.constraints p)
        then
          let sel =
            match Punctuation.pattern_at p cp.csteps.(k).cpins.(0).pos with
            | Punctuation.Const v -> Values [ v ]
            | Punctuation.Less_than v -> Below v
            | Punctuation.Wildcard -> All
          in
          walk_back cp k sel found)
      !new_puncts;
    List.iter
      (fun (j, tuples) ->
        let k = cp.step_of.(j) in
        let pos = cp.csteps.(k).cpins.(0).pos in
        walk_back cp k
          (Values (distinct (List.map (fun x -> Tuple.get x pos) tuples)))
          found)
      victims_since.(ix);
    found
  in
  (* Dead on arrival (PJoin's rule [6]): under [Eager], a tuple that has
     probed and that its purge plan already frees is not stored. The next
     round would free it anyway — purgeable stays purgeable while the
     punctuations stay stored — so this only brings that decision forward.
     A plan's first step pins root attributes only, so one store lookup
     settles almost every tuple; the walk runs only past a covered first
     step. *)
  let eager = policy = Purge_policy.Eager in
  let dead_on_arrival ix tup =
    eager
    &&
    match cplans.(ix) with
    | None -> false
    | Some cp ->
        let first = cp.csteps.(0) in
        Punct_store.covers slots.(first.target).puncts
          (Array.fold_right
             (fun c acc -> (c.pos, Tuple.get tup c.src_pos) :: acc)
             first.cpins [])
        && (Array.length cp.csteps = 1
           || Core.Chained_purge.tuple_purgeable cp.plan
                ~joinable:(joinable cp) ~covered ~root_tuple:tup)
  in
  let purge_round ~trigger ~full =
    stats := { !stats with purge_rounds = !stats.purge_rounds + 1 };
    let t0 = if instrumented then Telemetry.time_ns telemetry else 0 in
    let round_victims = ref 0 in
    Array.iteri
      (fun ix slot ->
        match cplans.(ix) with
        | None -> ()
        | Some cp ->
            let found =
              if full then begin
                let all = Hashtbl.create (Join_state.size slot.state) in
                Join_state.iteri
                  (fun id _ -> Hashtbl.replace all id ())
                  slot.state;
                all
              end
              else candidates ix cp
            in
            victims_since.(ix) <- [];
            checked_upto.(ix) <- Join_state.insertions slot.state;
            (* Memoize per distinct root-attribute projection: the chain
               only reads the root tuple through its pinned attributes. *)
            let memo = Hashtbl.create 8 in
            let purgeable t =
              let key = Tuple.project t cp.root_attrs in
              match Hashtbl.find_opt memo key with
              | Some b -> b
              | None ->
                  let b =
                    Core.Chained_purge.tuple_purgeable cp.plan
                      ~joinable:(joinable cp) ~covered ~root_tuple:t
                  in
                  Hashtbl.add memo key b;
                  b
            in
            let ids, dead =
              Hashtbl.fold
                (fun id () (ids, dead) ->
                  match Join_state.find slot.state id with
                  | Some t when purgeable t -> (id :: ids, t :: dead)
                  | _ -> (ids, dead))
                found ([], [])
            in
            let removed = Join_state.remove slot.state ids in
            if dead <> [] then
              List.iter
                (fun r -> victims_since.(r) <- (ix, dead) :: victims_since.(r))
                readers.(ix);
            record_purge ~input:slot.input.name ~trigger ~victims:removed;
            round_victims := !round_victims + removed;
            stats :=
              { !stats with tuples_purged = !stats.tuples_purged + removed })
      slots;
    new_puncts := [];
    full_next := false;
    if Telemetry.enabled telemetry then begin
      let tick = Telemetry.now telemetry in
      let lag =
        match !pending_since with Some t0 -> max 0 (tick - t0) | None -> 0
      in
      (* One round = one event and one counter bump, victims or not — the
         registry counter, [stats.purge_rounds] and event replay must
         agree (a victim-less round is still a round that ran). *)
      Telemetry.emit telemetry
        (Obs.Event.Purge_round
           { tick; op = name; trigger; victims = !round_victims; lag });
      Telemetry.incr telemetry (name ^ ".purge_rounds");
      Telemetry.observe telemetry (name ^ ".purge_round_ns")
        (max 0 (Telemetry.time_ns telemetry - t0))
    end
  in

  (* --- punctuation maintenance & propagation -------------------------- *)
  let maintain_punct_stores () =
    Array.iter
      (fun slot ->
        (match punct_lifespan with
        | Some lifespan ->
            let n = Punct_store.expire slot.puncts ~now:!now lifespan in
            stats := { !stats with puncts_purged = !stats.puncts_purged + n }
        | None -> ());
        if punct_partner_purge then begin
          let n =
            Punct_store.purge_if slot.puncts (fun p ->
                Core.Punct_purge.punct_purgeable_by_partners ~preds:predicates
                  ~schema_of:(fun s -> (slot_of s).input.schema)
                  ~covered p)
          in
          stats := { !stats with puncts_purged = !stats.puncts_purged + n }
        end)
      slots
  in
  let propagate () =
    Array.to_list slots
    |> List.concat_map (fun slot ->
           Punct_store.collect_forwardable slot.puncts
             ~drained:(fun p -> not (Join_state.exists_matching slot.state p))
           |> List.map (fun p ->
                  let lifted =
                    List.map
                      (fun (idx, pat) ->
                        let attr =
                          (Schema.attr_at slot.input.schema idx).Schema.name
                        in
                        (Schema.qualify_attr ~origin:slot.input.name attr, pat))
                      (Punctuation.constraints p)
                  in
                  Punctuation.of_constraints out_schema lifted))
  in
  let purge_and_propagate ?(full = false) ~trigger () =
    purge_round ~trigger ~full:(full || !full_next);
    maintain_punct_stores ();
    pending_puncts := 0;
    pending_since := None;
    let out = propagate () in
    stats := { !stats with puncts_out = !stats.puncts_out + List.length out };
    List.map (fun p -> Element.Punct p) out
  in

  (* --- the operator --------------------------------------------------- *)
  let trigger_of_policy () = Fmt.str "%a" Purge_policy.pp policy in
  let push arr =
    let acc = ref [] in
    let add outs = List.iter (fun e -> acc := e :: !acc) outs in
    (* Eager rounds are amortized per run: a run of punctuations
       accumulates in [pending_puncts] and a single round fires before the
       next data element probes (so data results see the same purged state
       as runs of one would — purged tuples are provably unmatchable, so
       results are unaffected) and again at run end, so purge lag stays 0
       on run boundaries. Propagated punctuations for the run are emitted
       together — multiset-equal to runs of one, as {!Operator.t.push}
       allows. *)
    let flush_coalesced () =
      match policy with
      | Purge_policy.Eager when !pending_puncts > 0 ->
          add (purge_and_propagate ~trigger:(trigger_of_policy ()) ())
      | _ -> ()
    in
    Array.iter
      (fun element ->
        incr now;
        let input_name = Element.stream_name element in
        let ix =
          match Hashtbl.find_opt slot_tbl input_name with
          | Some ix -> ix
          | None ->
              invalid_arg
                (Fmt.str "Mjoin %s: element for unknown input %s" name
                   input_name)
        in
        let slot = slots.(ix) in
        match element with
        | Element.Data tup ->
            flush_coalesced ();
            stats := { !stats with tuples_in = !stats.tuples_in + 1 };
            (* Input well-formedness: does this tuple contradict a
               punctuation its own input already delivered? Detection is
               unconditional (the stat and counter always move); the
               response is the contract's. *)
            let admit =
              if Punct_store.forbids slot.puncts tup then begin
                stats := { !stats with late_tuples = !stats.late_tuples + 1 };
                Contract.handle_late contract ~telemetry ~op:name
                  ~input:input_name tup
              end
              else `Admit
            in
            (match admit with
            | `Drop ->
                (* Late tuples must not probe either: a dropped/quarantined
                   run's answer is the fault-free answer. *)
                ()
            | `Admit ->
                if
                  Array.exists
                    (fun i -> Value.is_null (Tuple.get tup i))
                    slot.join_idxs
                then begin
                  (* Null join key: SQL equality never accepts Null, so the
                     tuple can satisfy no completion involving its stream —
                     dead on arrival. It is neither probed nor stored
                     (storing would hand compare-keyed index buckets a
                     Null = Null match that Predicate.eval rejects; see
                     {!Join_state}). *)
                  stats :=
                    { !stats with tuples_purged = !stats.tuples_purged + 1 };
                  record_purge ~input:input_name ~trigger:"null_key"
                    ~victims:1
                end
                else begin
                  Telemetry.incr telemetry c_probes;
                  let results = probe_from ix tup in
                  if dead_on_arrival ix tup then begin
                    stats :=
                      { !stats with tuples_purged = !stats.tuples_purged + 1 };
                    record_purge ~input:input_name ~trigger:"dead_on_arrival"
                      ~victims:1
                  end
                  else begin
                    (* The element clock never runs backwards (the null
                       handle's stays 0), so age-ordered eviction by
                       (tick, insertion id) is the arrival order and
                       shedding stays run-identical. *)
                    Join_state.insert ~tick:(Telemetry.now telemetry)
                      slot.state tup;
                    Telemetry.incr telemetry c_inserts
                  end;
                  stats :=
                    {
                      !stats with
                      tuples_out = !stats.tuples_out + List.length results;
                    };
                  List.iter (fun t -> acc := Element.Data t :: !acc) results
                end)
        | Element.Punct p ->
            stats := { !stats with puncts_in = !stats.puncts_in + 1 };
            let informative = Punct_store.insert slot.puncts ~now:!now p in
            if not informative then
              Contract.handle_punct_rejected contract ~telemetry ~op:name
                ~input:input_name ~ordered:(Punctuation.is_ordered p);
            if informative then begin
              if policy <> Purge_policy.Never && readers.(ix) <> [] then
                new_puncts := (ix, p) :: !new_puncts;
              incr pending_puncts;
              if !pending_since = None then
                pending_since := Some (Telemetry.now telemetry);
              if instrumented then update_punct_progress slot
            end;
            (match policy with
            | Purge_policy.Eager | Purge_policy.Never ->
                (* Eager: deferred to the next data element / batch end.
                   Never: no rounds, by definition. *)
                ()
            | Purge_policy.Lazy _ | Purge_policy.Adaptive _ ->
                let state_size =
                  Array.fold_left
                    (fun a s -> a + Join_state.size s.state)
                    0 slots
                in
                if
                  Purge_policy.due policy
                    ~punctuations_pending:!pending_puncts ~state_size
                then add (purge_and_propagate ~trigger:(trigger_of_policy ()) ())))
      arr;
    flush_coalesced ();
    List.rev !acc
  in
  let flush () =
    match policy with
    | Purge_policy.Never -> []
    | Purge_policy.Eager | Purge_policy.Lazy _ | Purge_policy.Adaptive _ ->
        (* Always run the final round, even with no punctuation pending:
           purge rounds fire on punctuation *arrival*, so a tuple that
           arrives after the punctuation already covering it has had no
           round run over it — it is provably unmatchable yet retained.
           The final state must be the purgeability fixpoint of the whole
           input, not of its punctuation-arrival prefix (and a sharded
           run, whose shards each see only a punctuation subsequence,
           relies on exactly that fixpoint to agree with the sequential
           answer). It re-checks every live tuple, candidate or not. *)
        purge_and_propagate ~full:true ~trigger:"flush" ()
  in
  let save () =
    let module W = Streams.Wire.W in
    let b = Buffer.create 4096 in
    W.u8 b 1;
    Operator.write_stats b !stats;
    W.int b !now;
    W.int b !pending_puncts;
    W.option W.int b !pending_since;
    Array.iter
      (fun slot ->
        Join_state.write_snapshot b slot.state;
        Punct_store.write_snapshot b slot.puncts)
      slots;
    Buffer.contents b
  in
  let load blob =
    let module R = Streams.Wire.R in
    let r = R.of_string blob in
    let v = R.u8 r in
    if v <> 1 then
      raise
        (Streams.Wire.Corrupt
           (Printf.sprintf "Mjoin snapshot version %d, expected 1" v));
    let st = Operator.read_stats r in
    let n = R.int r in
    let pp = R.int r in
    let ps = R.option R.int r in
    Array.iter
      (fun slot ->
        Join_state.read_snapshot slot.state r;
        Punct_store.read_snapshot slot.puncts r)
      slots;
    R.expect_end r;
    stats := st;
    now := n;
    pending_puncts := pp;
    pending_since := ps;
    full_next := true
  in
  {
    Operator.name;
    out_schema;
    input_names = names;
    push;
    flush;
    data_state_size =
      (fun () ->
        Array.fold_left (fun acc s -> acc + Join_state.size s.state) 0 slots);
    punct_state_size =
      (fun () ->
        Array.fold_left (fun acc s -> acc + Punct_store.size s.puncts) 0 slots);
    index_state_size =
      (fun () ->
        Array.fold_left
          (fun acc s -> acc + Join_state.index_entries s.state)
          0 slots);
    state_bytes =
      (fun () ->
        Array.fold_left
          (fun acc s ->
            acc + (Join_state.mem_stats s.state).Join_state.approx_bytes)
          0 slots);
    stats =
      (* The store-level conservation counters are folded in on read so the
         hot path stays untouched: arrivals the store rejected count as
         dropped, stored entries displaced by a subsuming insert count as
         purged. *)
      (fun () ->
        let dropped =
          Array.fold_left
            (fun acc s -> acc + Punct_store.rejected_count s.puncts)
            0 slots
        in
        let subsumed =
          Array.fold_left
            (fun acc s -> acc + Punct_store.subsumed_count s.puncts)
            0 slots
        in
        {
          !stats with
          puncts_dropped = dropped;
          puncts_purged = !stats.puncts_purged + subsumed;
        });
    persistence = Operator.Snapshot { save; load };
  }
