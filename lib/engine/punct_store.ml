open Relational
module Punctuation = Streams.Punctuation

module Key = struct
  type t = Value.t list

  let equal a b = List.compare Value.compare a b = 0
  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 k
end

module KeyTbl = Hashtbl.Make (Key)

type entry = {
  punct : Punctuation.t;
  inserted_at : int;
  mutable forwarded : bool;
}

(* Constant-only punctuations are grouped by their pinned positions (at most
   one group per declared scheme) and hash-indexed by the pinned values.
   Punctuations carrying order patterns (watermarks) live in a separate
   list: subsumption collapses an advancing watermark to a single entry per
   shape, so linear scans stay cheap. *)
type group = { positions : int list; entries : entry KeyTbl.t }

type t = {
  schema : Schema.t;
  mutable groups : group list;
  mutable ordered : entry list;
  mutable pending_forward : entry list;  (** reversed insertion order *)
  mutable insertions : int;
  mutable rejected : int;  (** arrivals already subsumed by the store *)
  mutable subsumed : int;  (** stored entries displaced by a later insert *)
  mutable removed : int;  (** entries removed via expire/purge_if *)
  mutable frontier : (int * int) option;
      (** {!progress} over the stored entries, unless [frontier_stale] *)
  mutable frontier_stale : bool;
      (** an entry left the store since [frontier] was computed *)
}

let create schema =
  {
    schema;
    groups = [];
    ordered = [];
    pending_forward = [];
    insertions = 0;
    rejected = 0;
    subsumed = 0;
    removed = 0;
    frontier = None;
    frontier_stale = false;
  }

let schema t = t.schema

let positions_of p = List.map fst (Punctuation.const_bindings p)
let values_of p = List.map snd (Punctuation.const_bindings p)

let covers t bindings =
  List.exists
    (fun g ->
      match
        List.map
          (fun pos ->
            match List.assoc_opt pos bindings with
            | Some v -> v
            | None -> raise Not_found)
          g.positions
      with
      | key -> KeyTbl.mem g.entries key
      | exception Not_found -> false)
    t.groups
  || List.exists (fun e -> Punctuation.covers e.punct bindings) t.ordered

let group_for t positions =
  match List.find_opt (fun g -> g.positions = positions) t.groups with
  | Some g -> g
  | None ->
      let g = { positions; entries = KeyTbl.create 32 } in
      t.groups <- g :: t.groups;
      g

(* An emptied group would otherwise pin its key table (and its positions
   entry in [groups]) forever — the same shape of leak the join-state
   indexes had. *)
let drop_empty_groups t =
  t.groups <- List.filter (fun g -> KeyTbl.length g.entries > 0) t.groups

let remove_subsumed_by t p =
  let before = t.subsumed in
  let p_positions = positions_of p in
  List.iter
    (fun g ->
      if
        List.for_all (fun pos -> List.mem pos g.positions) p_positions
        && g.positions <> p_positions
      then begin
        let victims =
          KeyTbl.fold
            (fun key e acc ->
              if Punctuation.subsumes p e.punct then key :: acc else acc)
            g.entries []
        in
        List.iter (KeyTbl.remove g.entries) victims;
        t.subsumed <- t.subsumed + List.length victims
      end)
    t.groups;
  drop_empty_groups t;
  let keep, gone =
    List.partition (fun e -> not (Punctuation.subsumes p e.punct)) t.ordered
  in
  t.subsumed <- t.subsumed + List.length gone;
  t.ordered <- keep;
  if t.subsumed > before then t.frontier_stale <- true

let subsumed_by_stored t p =
  List.exists (fun e -> Punctuation.subsumes e.punct p) t.ordered
  || (not (Punctuation.is_ordered p))
     && covers t (Punctuation.const_bindings p)

let already_subsumed = subsumed_by_stored

(* The integer tick a single punctuation vouches for: a constant pins that
   exact tick as covered; a watermark [Less_than v] covers everything up to
   [v - 1]. Non-integer constraints carry no position on the tick axis. *)
let punct_tick p =
  List.fold_left
    (fun acc (_, pat) ->
      let v =
        match pat with
        | Punctuation.Const (Value.Int v) -> Some v
        | Punctuation.Less_than (Value.Int v) -> Some (v - 1)
        | _ -> None
      in
      match (acc, v) with
      | None, v -> v
      | Some a, Some b -> Some (max a b)
      | Some _, None -> acc)
    None (Punctuation.constraints p)

let widen frontier v =
  match frontier with
  | None -> Some (v, v)
  | Some (lo, hi) -> Some (min lo v, max hi v)

let insert t ~now p =
  if not (Schema.equal (Punctuation.schema p) t.schema) then
    invalid_arg "Punct_store.insert: schema mismatch";
  if already_subsumed t p then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    remove_subsumed_by t p;
    let entry = { punct = p; inserted_at = now; forwarded = false } in
    if Punctuation.is_ordered p then t.ordered <- entry :: t.ordered
    else begin
      let g = group_for t (positions_of p) in
      KeyTbl.replace g.entries (values_of p) entry
    end;
    t.pending_forward <- entry :: t.pending_forward;
    t.insertions <- t.insertions + 1;
    (match punct_tick p with
    | Some v when not t.frontier_stale -> t.frontier <- widen t.frontier v
    | _ -> ());
    true
  end

let size t =
  List.fold_left (fun acc g -> acc + KeyTbl.length g.entries) 0 t.groups
  + List.length t.ordered

let group_count t = List.length t.groups
let pending_count t = List.length t.pending_forward

let insertions t = t.insertions
let rejected_count t = t.rejected
let subsumed_count t = t.subsumed
let removed_count t = t.removed

let forbids t tuple =
  List.exists
    (fun g ->
      let key = Tuple.project tuple g.positions in
      KeyTbl.mem g.entries key)
    t.groups
  || List.exists (fun e -> Punctuation.matches e.punct tuple) t.ordered

let iter f t =
  List.iter (fun g -> KeyTbl.iter (fun _ e -> f e.punct) g.entries) t.groups;
  List.iter (fun e -> f e.punct) t.ordered

let to_list t =
  let acc = ref [] in
  iter (fun p -> acc := p :: !acc) t;
  !acc

(* The frontier widens on insert and is recomputed only after an entry
   left the store, so the per-punctuation progress gauges cost O(1). *)
let progress t =
  if t.frontier_stale then begin
    let acc = ref None in
    iter
      (fun p ->
        match punct_tick p with None -> () | Some v -> acc := widen !acc v)
      t;
    t.frontier <- !acc;
    t.frontier_stale <- false
  end;
  t.frontier

let remove_where t pred =
  let count =
    List.fold_left
      (fun count g ->
        let victims =
          KeyTbl.fold
            (fun key e acc -> if pred e then key :: acc else acc)
            g.entries []
        in
        List.iter (KeyTbl.remove g.entries) victims;
        count + List.length victims)
      0 t.groups
  in
  drop_empty_groups t;
  let keep, drop = List.partition (fun e -> not (pred e)) t.ordered in
  t.ordered <- keep;
  (* a removed punctuation must not be forwarded later: expire/purge_if and
     the forward queue stay symmetric *)
  t.pending_forward <- List.filter (fun e -> not (pred e)) t.pending_forward;
  let total = count + List.length drop in
  t.removed <- t.removed + total;
  if total > 0 then t.frontier_stale <- true;
  total

let expire t ~now lifespan =
  remove_where t (fun e ->
      Core.Punct_purge.expired ~now ~inserted_at:e.inserted_at lifespan)

let purge_if t pred = remove_where t (fun e -> pred e.punct)

let find_entry t p =
  if Punctuation.is_ordered p then
    List.find_opt (fun e -> Punctuation.equal e.punct p) t.ordered
  else
    let positions = positions_of p in
    match List.find_opt (fun g -> g.positions = positions) t.groups with
    | None -> None
    | Some g -> KeyTbl.find_opt g.entries (values_of p)

let mark_forwarded t p =
  match find_entry t p with Some e -> e.forwarded <- true | None -> ()

let is_forwarded t p =
  match find_entry t p with Some e -> e.forwarded | None -> false

(* --- serialization ------------------------------------------------------ *)

module Wire = Streams.Wire

let snapshot_version = 1

let write_entry b (e : entry) =
  Wire.write_punctuation b e.punct;
  Wire.W.int b e.inserted_at;
  Wire.W.bool b e.forwarded

let read_entry ~schema r =
  let punct = Wire.read_punctuation ~schema r in
  let inserted_at = Wire.R.int r in
  let forwarded = Wire.R.bool r in
  { punct; inserted_at; forwarded }

(* Ordered entries keep their list order (it is insertion history); group
   entries are emitted sorted by punctuation so the same store state always
   serializes to the same bytes. The forward queue is serialized as bare
   punctuations and re-resolved through {!find_entry} on restore, so queued
   entries stay physically shared with their stored twins (subsumption
   keeps punctuations unique per store). *)
let write_snapshot b (t : t) =
  Wire.W.u8 b snapshot_version;
  Wire.W.int b t.insertions;
  Wire.W.int b t.rejected;
  Wire.W.int b t.subsumed;
  Wire.W.int b t.removed;
  Wire.W.list write_entry b t.ordered;
  Wire.W.list
    (fun b g ->
      Wire.W.list Wire.W.int b g.positions;
      let entries = KeyTbl.fold (fun _ e acc -> e :: acc) g.entries [] in
      let entries =
        List.sort (fun a b -> Punctuation.compare a.punct b.punct) entries
      in
      Wire.W.list write_entry b entries)
    b t.groups;
  Wire.W.list
    (fun b (e : entry) -> Wire.write_punctuation b e.punct)
    b t.pending_forward

let read_snapshot (t : t) r =
  let v = Wire.R.u8 r in
  if v <> snapshot_version then
    raise
      (Wire.Corrupt
         (Printf.sprintf "Punct_store snapshot version %d, expected %d" v
            snapshot_version));
  let insertions = Wire.R.int r in
  let rejected = Wire.R.int r in
  let subsumed = Wire.R.int r in
  let removed = Wire.R.int r in
  let ordered = Wire.R.list (read_entry ~schema:t.schema) r in
  let groups =
    Wire.R.list
      (fun r ->
        let positions = Wire.R.list Wire.R.int r in
        let entries = Wire.R.list (read_entry ~schema:t.schema) r in
        let tbl = KeyTbl.create (max 32 (2 * List.length entries)) in
        List.iter (fun e -> KeyTbl.replace tbl (values_of e.punct) e) entries;
        { positions; entries = tbl })
      r
  in
  let pending = Wire.R.list (Wire.read_punctuation ~schema:t.schema) r in
  t.insertions <- insertions;
  t.rejected <- rejected;
  t.subsumed <- subsumed;
  t.removed <- removed;
  t.ordered <- ordered;
  t.groups <- groups;
  t.frontier_stale <- true;
  (* A queued punctuation may have left the store by subsumption: it is
     still forwarded once drained, so it comes back as a detached entry.
     Its insertion time is not in the snapshot; 0 is the oldest it can be. *)
  t.pending_forward <-
    List.map
      (fun p ->
        match find_entry t p with
        | Some e -> e
        | None -> { punct = p; inserted_at = 0; forwarded = false })
      pending

let collect_forwardable t ~drained =
  let collected = ref [] in
  let still_pending =
    List.filter
      (fun e ->
        if e.forwarded then false
        else if drained e.punct then begin
          e.forwarded <- true;
          collected := e.punct :: !collected;
          false
        end
        else true)
      t.pending_forward
  in
  t.pending_forward <- still_pending;
  (* pending_forward is reversed insertion order, so [collected] (reversed
     again by the cons above) comes out in insertion order *)
  !collected
