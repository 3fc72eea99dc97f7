open Relational

(* Buckets of a generic (non-Int) index, keyed by one attribute value. *)
module KeyTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal a b = Value.compare a b = 0
  let hash = Value.hash
end)

(* Bucket storage per index. Every index is on one attribute. The generic
   representation keys buckets by the raw [Value.t]; the specialized one
   unboxes an Int-typed attribute so the hot probe path hashes a native
   int. Chosen once at index-build time from the schema's attribute type.

   Null join keys are never stored in either representation and probing
   with a Null returns nothing: [KeyTbl]'s equality (via [Value.compare])
   would otherwise match Null = Null while [Predicate.eval] (via
   [Value.equal]) rejects it, making the answer depend on which atom the
   probe order happened to pick as the hash key. SQL semantics — a null
   key matches nothing — is the one both paths can agree on (see
   {!Value.compare}). *)
type buckets =
  | Generic of int list ref KeyTbl.t
  | Int1 of (int, int list ref) Hashtbl.t

type index = {
  attr : int;
  buckets : buckets;
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

let index_insert (idx : index) id tup =
  match (idx.buckets, Tuple.get tup idx.attr) with
  | Int1 tbl, Value.Int k ->
      (match Hashtbl.find_opt tbl k with
      | Some ids -> ids := id :: !ids
      | None -> Hashtbl.add tbl k (ref [ id ]));
      idx.entries <- idx.entries + 1
  | _, Value.Null | Int1 _, _ ->
      (* Null (or an out-of-type value, impossible for validated tuples):
         not indexable, the tuple can never be a probe hit. *)
      ()
  | Generic tbl, key ->
      (match KeyTbl.find_opt tbl key with
      | Some ids -> ids := id :: !ids
      | None -> KeyTbl.add tbl key (ref [ id ]));
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
  if victims <> [] then
    match t.indexes with
    | [] -> ()
    | indexes ->
        let dead = Hashtbl.create (2 * List.length victims) in
        List.iter (fun (id, _) -> Hashtbl.replace dead id ()) victims;
        let compact idx remove ids =
          let keep = List.filter (fun id -> not (Hashtbl.mem dead id)) !ids in
          idx.entries <- idx.entries - (List.length !ids - List.length keep);
          if keep = [] then remove () else ids := keep
        in
        List.iter
          (fun (idx : index) ->
            match idx.buckets with
            | Int1 tbl ->
                let touched = Hashtbl.create 16 in
                List.iter
                  (fun (_, tup) ->
                    match Tuple.get tup idx.attr with
                    | Value.Int k -> Hashtbl.replace touched k ()
                    | _ -> ())
                  victims;
                Hashtbl.iter
                  (fun k () ->
                    match Hashtbl.find_opt tbl k with
                    | None -> ()
                    | Some ids ->
                        compact idx (fun () -> Hashtbl.remove tbl k) ids)
                  touched
            | Generic tbl ->
                let touched = KeyTbl.create 16 in
                List.iter
                  (fun (_, tup) ->
                    let key = Tuple.get tup idx.attr in
                    if not (Value.is_null key) then KeyTbl.replace touched key ())
                  victims;
                KeyTbl.iter
                  (fun key () ->
                    match KeyTbl.find_opt tbl key with
                    | None -> ()
                    | Some ids ->
                        compact idx (fun () -> KeyTbl.remove tbl key) ids)
                  touched)
          indexes

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
let evict_oldest t ~count =
  if count <= 0 then 0
  else begin
    let all =
      Hashtbl.fold (fun id (k, tup) acc -> (k, id, tup) :: acc) t.live []
    in
    let sorted =
      List.sort
        (fun (k1, i1, _) (k2, i2, _) -> compare (k1, i1) (k2, i2))
        all
    in
    let victims =
      List.filteri (fun i _ -> i < count) sorted
      |> List.map (fun (_, id, tup) -> (id, tup))
    in
    remove_victims t victims
  end

let size t = Hashtbl.length t.live
let insertions t = t.next_id

let buckets_for (schema : Schema.t) attr =
  if (Schema.attr_at schema attr).Schema.ty = Value.TInt then
    Int1 (Hashtbl.create 64)
  else Generic (KeyTbl.create 64)

let find_index (t : t) ~attr = List.find_opt (fun i -> i.attr = attr) t.indexes

let index_on t ~attr =
  match find_index t ~attr with
  | Some idx -> idx
  | None ->
      let idx = { attr; buckets = buckets_for t.schema attr; entries = 0 } in
      Hashtbl.iter (fun id (_, tup) -> index_insert idx id tup) t.live;
      t.indexes <- idx :: t.indexes;
      idx

(* The live entries of bucket [ids], in bucket order. Purge maintains the
   indexes eagerly, so every id should be live; a dead one is swept here,
   and only then is the id list rewritten (an emptied bucket is removed). *)
let live_entries (t : t) (idx : index) remove ids =
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
    if entries = [] then remove ()
    else ids := List.filter (Hashtbl.mem t.live) !ids
  end;
  entries

let probe_handle (t : t) (idx : index) v =
  match (idx.buckets, v) with
  | _, Value.Null -> []
  | Int1 tbl, Value.Int k -> (
      match Hashtbl.find_opt tbl k with
      | None -> []
      | Some ids -> live_entries t idx (fun () -> Hashtbl.remove tbl k) ids)
  | Int1 _, _ ->
      (* probing an Int-typed column with a non-Int value: by typing it
         cannot be stored here, so there is nothing to match *)
      []
  | Generic tbl, v -> (
      match KeyTbl.find_opt tbl v with
      | None -> []
      | Some ids -> live_entries t idx (fun () -> KeyTbl.remove tbl v) ids)

(* Id-level probe for the incremental purge: the ids of the live tuples in
   [v]'s bucket, with their tuples. *)
let probe_ids (t : t) (idx : index) v =
  let ids =
    match idx.buckets, v with
    | _, Value.Null -> None
    | Int1 tbl, Value.Int k -> Hashtbl.find_opt tbl k
    | Int1 _, _ -> None
    | Generic tbl, v -> KeyTbl.find_opt tbl v
  in
  match ids with
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
  (match idx.buckets with
  | Int1 tbl -> Hashtbl.reset tbl
  | Generic tbl -> KeyTbl.reset tbl);
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
        t.indexes <-
          { attr; buckets = buckets_for t.schema attr; entries = 0 }
          :: t.indexes)
    index_attrs;
  List.iter
    (fun (id, tick, tup) ->
      Hashtbl.replace t.live id (tick, tup);
      List.iter (fun idx -> index_insert idx id tup) t.indexes)
    entries

(* --- memory accounting ------------------------------------------------- *)

let index_entries (t : t) =
  List.fold_left (fun acc idx -> acc + idx.entries) 0 t.indexes

let buckets_in = function
  | Int1 tbl -> Hashtbl.length tbl
  | Generic tbl -> KeyTbl.length tbl

let bucket_count (t : t) =
  List.fold_left (fun acc (idx : index) -> acc + buckets_in idx.buckets) 0 t.indexes

let mem_stats (t : t) =
  let live_tuples = Hashtbl.length t.live in
  (* Per live tuple: the (tick, tuple) pair, the tuple block and one boxed
     value per attribute, plus a hash-table slot. Per index entry: a list
     cell. Per bucket: the ref, the key list and its boxed values, plus a
     table slot. A deliberate estimate ({!Mem_estimate}) — the point is the
     trend, not the exact byte. *)
  let tuple_bytes = Mem_estimate.tuple_bytes t.schema in
  let entry_bytes = Mem_estimate.list_cell_bytes in
  let buckets = bucket_count t in
  let bucket_bytes (idx : index) =
    Mem_estimate.table_entry_bytes ~width:1 * buckets_in idx.buckets
  in
  let approx_bytes =
    (live_tuples * tuple_bytes)
    + (index_entries t * entry_bytes)
    + List.fold_left (fun acc idx -> acc + bucket_bytes idx) 0 t.indexes
  in
  {
    live_tuples;
    index_entries = index_entries t;
    buckets;
    indexes = List.length t.indexes;
    approx_bytes;
  }
