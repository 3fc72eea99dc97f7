open Relational

(* The one key table of every index: buckets keyed by the indexed
   attribute's value. An [Int] key hashes as the native int, which
   allocates nothing; [Value.hash] boxes a pair for it and stays as it
   is, because [Shard_router.owner] places keys by it.

   Null join keys are never stored and probing with a Null returns
   nothing: the table's equality (via [Value.compare]) would otherwise
   match Null = Null while [Predicate.eval] (via [Value.equal]) rejects
   it, making the answer depend on which atom the probe order happened to
   pick as the hash key. SQL semantics — a null key matches nothing — is
   the one both paths can agree on (see {!Value.compare}). *)
module KeyTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal a b = Value.compare a b = 0
  let hash = function Value.Int k -> Hashtbl.hash k | v -> Value.hash v
end)

type index = {
  attr : int;
  buckets : int list ref KeyTbl.t;
  mutable entries : int;  (** total ids across all buckets (kept exact) *)
}

type handle = index

type t = {
  schema : Schema.t;
  live : (int, int * Tuple.t) Hashtbl.t;  (** id -> (insertion tick, tuple) *)
  mutable indexes : index list;
  mutable next_id : int;
}

type mem_stats = {
  live_tuples : int;
  index_entries : int;
  buckets : int;
  indexes : int;
  approx_bytes : int;
}

let create schema =
  { schema; live = Hashtbl.create 64; indexes = []; next_id = 0 }

let new_index attr = { attr; buckets = KeyTbl.create 64; entries = 0 }

let index_insert (idx : index) id tup =
  match Tuple.get tup idx.attr with
  | Value.Null -> ()
  | key ->
      (match KeyTbl.find_opt idx.buckets key with
      | Some ids -> ids := id :: !ids
      | None -> KeyTbl.add idx.buckets key (ref [ id ]));
      idx.entries <- idx.entries + 1

let insert ?tick t tup =
  if not (Schema.equal (Tuple.schema tup) t.schema) then
    invalid_arg "Join_state.insert: schema mismatch";
  let id = t.next_id in
  t.next_id <- id + 1;
  let tick = match tick with Some k -> k | None -> id in
  Hashtbl.replace t.live id (tick, tup);
  List.iter (fun idx -> index_insert idx id tup) t.indexes

(* Eagerly drop [victims] (already removed from [live]) from every index:
   one pass over the affected buckets, emptied buckets are deleted so the
   key table cannot accumulate keys the stream will never repeat. *)
let remove_from_indexes (t : t) victims =
  if victims <> [] && t.indexes <> [] then begin
    let dead = Hashtbl.create (2 * List.length victims) in
    List.iter (fun (id, _) -> Hashtbl.replace dead id ()) victims;
    List.iter
      (fun (idx : index) ->
        let touched = KeyTbl.create 16 in
        List.iter
          (fun (_, tup) ->
            let key = Tuple.get tup idx.attr in
            if not (Value.is_null key) then KeyTbl.replace touched key ())
          victims;
        KeyTbl.iter
          (fun key () ->
            match KeyTbl.find_opt idx.buckets key with
            | None -> ()
            | Some ids ->
                let keep =
                  List.filter (fun id -> not (Hashtbl.mem dead id)) !ids
                in
                idx.entries <-
                  idx.entries - (List.length !ids - List.length keep);
                if keep = [] then KeyTbl.remove idx.buckets key
                else ids := keep)
          touched)
      t.indexes
  end

let remove_victims t victims =
  List.iter (fun (id, _) -> Hashtbl.remove t.live id) victims;
  remove_from_indexes t victims;
  List.length victims

let evict_before t ~tick =
  let victims =
    Hashtbl.fold
      (fun id (k, tup) acc -> if k < tick then (id, tup) :: acc else acc)
      t.live []
  in
  remove_victims t victims

(* Deterministic age-ordered eviction for load shedding: victims are the
   [count] oldest live tuples by (insertion tick, insertion id) — a total
   order, so two incarnations of the same state shed the same tuples
   regardless of hash-table iteration order. *)
let oldest t ~count =
  Hashtbl.fold (fun id (k, tup) acc -> (k, id, tup) :: acc) t.live []
  |> List.sort (fun (k1, i1, _) (k2, i2, _) -> compare (k1, i1) (k2, i2))
  |> List.filteri (fun i _ -> i < count)
  |> List.map (fun (_, id, tup) -> (id, tup))

let evict_oldest t ~count =
  if count <= 0 then 0 else remove_victims t (oldest t ~count)

let size t = Hashtbl.length t.live
let insertions t = t.next_id

let find_index (t : t) ~attr = List.find_opt (fun i -> i.attr = attr) t.indexes

let index_on t ~attr =
  match find_index t ~attr with
  | Some idx -> idx
  | None ->
      let idx = new_index attr in
      Hashtbl.iter (fun id (_, tup) -> index_insert idx id tup) t.live;
      t.indexes <- idx :: t.indexes;
      idx

(* [v]'s bucket; a Null is never stored, so it matches nothing. *)
let bucket (idx : index) v =
  match v with Value.Null -> None | v -> KeyTbl.find_opt idx.buckets v

(* The live entries of [key]'s bucket [ids], in bucket order. Purge
   maintains the indexes eagerly, so every id should be live; a dead one
   is swept here, and only then is the id list rewritten (an emptied
   bucket is removed). *)
let live_entries (t : t) (idx : index) key ids =
  let dead = ref 0 in
  let[@tail_mod_cons] rec live = function
    | [] -> []
    | id :: rest -> (
        match Hashtbl.find t.live id with
        | entry -> entry :: live rest
        | exception Not_found ->
            incr dead;
            live rest)
  in
  let entries = live !ids in
  if !dead > 0 then begin
    idx.entries <- idx.entries - !dead;
    if entries = [] then KeyTbl.remove idx.buckets key
    else ids := List.filter (Hashtbl.mem t.live) !ids
  end;
  entries

let probe_handle (t : t) (idx : index) v =
  match bucket idx v with None -> [] | Some ids -> live_entries t idx v ids

(* Id-level probe for the incremental purge: the ids of the live tuples in
   [v]'s bucket, with their tuples. *)
let probe_ids (t : t) (idx : index) v =
  match bucket idx v with
  | None -> []
  | Some ids ->
      List.filter_map
        (fun id ->
          match Hashtbl.find_opt t.live id with
          | Some (_, tup) -> Some (id, tup)
          | None -> None)
        !ids

let find t id = Option.map snd (Hashtbl.find_opt t.live id)

let remove t ids =
  let victims =
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt t.live id with
        | Some (_, tup) ->
            Hashtbl.remove t.live id;
            Some (id, tup)
        | None -> None)
      ids
  in
  remove_from_indexes t victims;
  List.length victims

let iteri f t = Hashtbl.iter (fun id (_, tup) -> f id tup) t.live
let fold f init t = Hashtbl.fold (fun _ entry acc -> f acc entry) t.live init

let purge_if t pred =
  let victims =
    Hashtbl.fold
      (fun id (_, tup) acc -> if pred tup then (id, tup) :: acc else acc)
      t.live []
  in
  remove_victims t victims

let exists_matching t p =
  let exception Found in
  try
    Hashtbl.iter
      (fun _ (_, tup) -> if Streams.Punctuation.matches p tup then raise Found)
      t.live;
    false
  with Found -> true

(* --- serialization ------------------------------------------------------ *)

module Wire = Streams.Wire

let snapshot_version = 1

(* Live entries ascending by id, then each index's attribute as a
   one-element list. The tuples themselves carry no schema — the reader
   restores into a state compiled from the same plan. *)
let write_snapshot b (t : t) =
  Wire.W.u8 b snapshot_version;
  Wire.W.int b t.next_id;
  let entries =
    Hashtbl.fold (fun id (tick, tup) acc -> (id, tick, tup) :: acc) t.live []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  Wire.W.list
    (fun b (id, tick, tup) ->
      Wire.W.int b id;
      Wire.W.int b tick;
      Wire.write_tuple b tup)
    b entries;
  Wire.W.list (Wire.W.list Wire.W.int) b
    (List.map (fun (idx : index) -> [ idx.attr ]) t.indexes)

let clear_index (idx : index) =
  KeyTbl.reset idx.buckets;
  idx.entries <- 0

(* In-place restore: compiled probe programs hold resolved {!handle}s into
   this state's index records, so the records are kept and refilled, never
   replaced. Entries are reinserted in ascending id order — the order the
   original inserts arrived in — so each bucket's id list (prepend on
   insert ⇒ newest first) is reproduced exactly and probe output order is
   deterministic across a restore. Indexes the snapshot had beyond the
   compiled ones (built on demand by earlier probes) are recreated empty
   and filled by the same pass. *)
let read_snapshot (t : t) r =
  let v = Wire.R.u8 r in
  if v <> snapshot_version then
    raise
      (Wire.Corrupt
         (Printf.sprintf "Join_state snapshot version %d, expected %d" v
            snapshot_version));
  let next_id = Wire.R.int r in
  let entries =
    Wire.R.list
      (fun r ->
        let id = Wire.R.int r in
        let tick = Wire.R.int r in
        let tup = Wire.read_tuple ~schema:t.schema r in
        (id, tick, tup))
      r
  in
  let index_attrs =
    Wire.R.list
      (fun r ->
        match Wire.R.list Wire.R.int r with
        | [ attr ] when attr >= 0 && attr < Schema.arity t.schema -> attr
        | _ -> raise (Wire.Corrupt "Join_state snapshot: bad index attribute"))
      r
  in
  Hashtbl.reset t.live;
  t.next_id <- next_id;
  List.iter (fun idx -> clear_index idx) t.indexes;
  List.iter
    (fun attr ->
      if find_index t ~attr = None then
        t.indexes <- new_index attr :: t.indexes)
    index_attrs;
  List.iter
    (fun (id, tick, tup) ->
      Hashtbl.replace t.live id (tick, tup);
      List.iter (fun idx -> index_insert idx id tup) t.indexes)
    entries

(* --- memory accounting ------------------------------------------------- *)

let mem_stats (t : t) =
  let live_tuples = Hashtbl.length t.live in
  let index_entries, buckets =
    List.fold_left
      (fun (e, b) (idx : index) ->
        (e + idx.entries, b + KeyTbl.length idx.buckets))
      (0, 0) t.indexes
  in
  (* Per live tuple: the (tick, tuple) pair, the tuple block and one boxed
     value per attribute, plus a hash-table slot. Per index entry: a list
     cell. Per bucket: the ref, the key list and its boxed values, plus a
     table slot. A deliberate estimate ({!Mem_estimate}) — the point is the
     trend, not the exact byte. *)
  let approx_bytes =
    (live_tuples * Mem_estimate.tuple_bytes t.schema)
    + (index_entries * Mem_estimate.list_cell_bytes)
    + (buckets * Mem_estimate.table_entry_bytes ~width:1)
  in
  {
    live_tuples;
    index_entries;
    buckets;
    indexes = List.length t.indexes;
    approx_bytes;
  }

let reading ~puncts states =
  List.fold_left
    (fun (r : Operator.state) s ->
      let m = mem_stats s in
      {
        r with
        data = r.data + m.live_tuples;
        index = r.index + m.index_entries;
        bytes = r.bytes + m.approx_bytes;
      })
    { Operator.no_state with puncts }
    states

module TupleTbl = Hashtbl.Make (Tuple)

(* Degraded mode's emergency eviction: a quarter of each state, oldest
   first ({!evict_oldest}). A shadow stores its own copies of a subset of
   its state's tuples, so it loses one equal copy per victim. *)
let shed ?(shadows = []) states =
  let bytes () =
    List.fold_left (fun acc s -> acc + (mem_stats s).approx_bytes) 0 states
  in
  let before = bytes () in
  let shed_one acc s =
    let victims = oldest s ~count:((size s + 3) / 4) in
    Option.iter
      (fun shadow ->
        let owed = TupleTbl.create 16 in
        List.iter (fun (_, tup) -> TupleTbl.add owed tup ()) victims;
        ignore
          (purge_if shadow (fun tup ->
               let copy = TupleTbl.mem owed tup in
               if copy then TupleTbl.remove owed tup;
               copy)))
      (List.assq_opt s shadows);
    acc + remove_victims s victims
  in
  let victims = List.fold_left shed_one 0 states in
  (victims, max 0 (before - bytes ()))
