open Relational

type step = {
  step_input : string;
  key_atoms : Predicate.atom list;
  check_atoms : Predicate.atom list;
}

let orders names predicates =
  let linked a b =
    List.exists
      (fun atom -> Predicate.involves atom a && Predicate.involves atom b)
      predicates
  in
  List.map
    (fun start ->
      let rec build bound remaining acc =
        match remaining with
        | [] -> List.rev acc
        | _ ->
            let next =
              match
                List.find_opt
                  (fun r -> List.exists (fun b -> linked b r) bound)
                  remaining
              with
              | Some r -> r
              | None ->
                  (* Disconnected operator-level join graph: cartesian step
                     (kept total; the executor avoids building these). *)
                  List.hd remaining
            in
            let atoms =
              List.filter
                (fun atom ->
                  Predicate.involves atom next
                  && List.exists (fun b -> Predicate.involves atom b) bound)
                predicates
            in
            let key_atoms, check_atoms =
              match atoms with [] -> ([], []) | k :: rest -> ([ k ], rest)
            in
            build (next :: bound)
              (List.filter (fun r -> r <> next) remaining)
              ({ step_input = next; key_atoms; check_atoms } :: acc)
      in
      (start, build [ start ] (List.filter (fun n -> n <> start) names) []))
    names

(* --- compiled probe programs ------------------------------------------- *)

(* A compiled program resolves a walk once at plan time: inputs become
   integer slot ids, attribute names become positions, and the hash index
   of every keyed step is resolved to a {!Join_state.handle}. The runtime
   loop then only touches arrays. *)

type ckey = {
  bound_slot : int;  (** already-bound slot carrying the probe value *)
  bound_idx : int;  (** attribute position in the bound slot's schema *)
  handle : Join_state.handle;  (** resolved index on the target's key attr *)
}

type ccheck = {
  other_slot : int;
  other_idx : int;
  cand_idx : int;  (** candidate-side attribute position *)
}

type cstep = {
  target : int;
  target_state : Join_state.t;
  key : ckey option;  (** [None] — cartesian scan step *)
  checks : ccheck array;
}

type prog = { steps : cstep array; n_slots : int }

let compile ~names ~schemas ~states ~steps =
  let n = Array.length names in
  let slot_of name =
    let rec go i =
      if i = n then raise Not_found
      else if String.equal names.(i) name then i
      else go (i + 1)
    in
    go 0
  in
  let csteps =
    List.map
      (fun step ->
        let target = slot_of step.step_input in
        let target_schema = schemas.(target) in
        let cand_idx_of atom =
          Schema.attr_index target_schema
            (Predicate.attr_on atom step.step_input)
        in
        let key =
          match step.key_atoms with
          | [] -> None
          | atom :: _ ->
              let bound_stream, bound_attr =
                Predicate.other_side atom step.step_input
              in
              let bound_slot = slot_of bound_stream in
              Some
                {
                  bound_slot;
                  bound_idx = Schema.attr_index schemas.(bound_slot) bound_attr;
                  handle =
                    Join_state.index_on states.(target) ~attr:(cand_idx_of atom);
                }
        in
        let extra =
          step.check_atoms
          @ match step.key_atoms with _ :: rest -> rest | [] -> []
        in
        let checks =
          List.map
            (fun atom ->
              let other_stream, other_attr =
                Predicate.other_side atom step.step_input
              in
              let other_slot = slot_of other_stream in
              {
                other_slot;
                other_idx = Schema.attr_index schemas.(other_slot) other_attr;
                cand_idx = cand_idx_of atom;
              })
            extra
          |> Array.of_list
        in
        { target; target_state = states.(target); key; checks })
      steps
  in
  { steps = Array.of_list csteps; n_slots = n }

let run_compiled prog tuple ~tick ~emit =
  (* Depth-first over the compiled steps; [asg] and, parallel to it,
     [ticks] (each bound tuple's insertion tick; the origin's is [tick])
     are reused in place, so [emit] must consume them immediately (result
     assembly copies the values out anyway). Slots not yet bound alias the
     origin, which is safe: a step only ever reads slots the walk has
     already bound. Candidates are visited in per-bucket order, so results
     come out in the lexicographic order of the walk's steps. *)
  let asg = Array.make prog.n_slots tuple in
  let ticks = Array.make prog.n_slots tick in
  let m = Array.length prog.steps in
  let rec go i =
    if i = m then emit asg ticks
    else begin
      let st = prog.steps.(i) in
      let candidates =
        match st.key with
        | Some k ->
            Join_state.probe_handle st.target_state k.handle
              (Tuple.get asg.(k.bound_slot) k.bound_idx)
        | None -> Join_state.fold (fun acc e -> e :: acc) [] st.target_state
      in
      List.iter
        (fun (cand_tick, cand) ->
          let checks = st.checks in
          let nc = Array.length checks in
          let ok = ref true in
          let j = ref 0 in
          while !ok && !j < nc do
            let c = checks.(!j) in
            if
              not
                (Value.equal (Tuple.get cand c.cand_idx)
                   (Tuple.get asg.(c.other_slot) c.other_idx))
            then ok := false;
            incr j
          done;
          if !ok then begin
            asg.(st.target) <- cand;
            ticks.(st.target) <- cand_tick;
            go (i + 1)
          end)
        candidates
    end
  in
  go 0
