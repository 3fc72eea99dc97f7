open Relational

module Key = struct
  type t = Value.t list

  let equal a b = List.compare Value.compare a b = 0
  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 k
end

module KeyTbl = Hashtbl.Make (Key)

(* Bucket storage per index. The generic representation keys buckets by the
   raw projected [Value.t list]; the specialized one unboxes the common
   single-attribute Int key so the hot probe path hashes a native int
   instead of a boxed heterogeneous list. Chosen once at index-build time
   from the schema's attribute type.

   Null join keys are never stored in either representation and probing
   with a Null returns nothing: [Key.equal] (via [Value.compare]) would
   otherwise match Null = Null while [Predicate.eval] (via [Value.equal])
   rejects it, making the answer depend on which atom the probe order
   happened to pick as the hash key. SQL semantics — a null key matches
   nothing — is the one both paths can agree on (see {!Value.compare}). *)
type buckets =
  | Generic of int list ref KeyTbl.t
  | Int1 of (int, int list ref) Hashtbl.t

type index = {
  attrs : int list;
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

let schema t = t.schema

let index_insert (idx : index) id tup =
  match idx.buckets with
  | Int1 tbl -> (
      match Tuple.get tup (List.hd idx.attrs) with
      | Value.Int k ->
          (match Hashtbl.find_opt tbl k with
          | Some ids -> ids := id :: !ids
          | None -> Hashtbl.add tbl k (ref [ id ]));
          idx.entries <- idx.entries + 1
      | _ ->
          (* Null (or an out-of-type value, impossible for validated
             tuples): not indexable, the tuple can never be a probe hit. *)
          ())
  | Generic tbl ->
      let key = Tuple.project tup idx.attrs in
      if not (List.exists Value.is_null key) then begin
        (match KeyTbl.find_opt tbl key with
        | Some ids -> ids := id :: !ids
        | None -> KeyTbl.add tbl key (ref [ id ]));
        idx.entries <- idx.entries + 1
      end

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
                let attr = List.hd idx.attrs in
                let touched = Hashtbl.create 16 in
                List.iter
                  (fun (_, tup) ->
                    match Tuple.get tup attr with
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
                    let key = Tuple.project tup idx.attrs in
                    if not (List.exists Value.is_null key) then
                      KeyTbl.replace touched key ())
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

let build_index t attrs =
  let buckets =
    match attrs with
    | [ a ] when (Schema.attr_at t.schema a).Schema.ty = Value.TInt ->
        Int1 (Hashtbl.create 64)
    | _ -> Generic (KeyTbl.create 64)
  in
  let idx = { attrs; buckets; entries = 0 } in
  Hashtbl.iter (fun id (_, tup) -> index_insert idx id tup) t.live;
  t.indexes <- idx :: t.indexes;
  idx

let find_or_build_index (t : t) attrs =
  match List.find_opt (fun i -> i.attrs = attrs) t.indexes with
  | Some i -> i
  | None -> build_index t attrs

let index_on t ~attr = find_or_build_index t [ attr ]
let find_index (t : t) ~attr =
  List.find_opt (fun i -> i.attrs = [ attr ]) t.indexes

(* Purge maintains the indexes eagerly, so every id should be live; keep
   the compaction as a defensive sweep and never leave an empty bucket
   behind. *)
let bucket_tuples (t : t) (idx : index) remove ids =
  let alive =
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt t.live id with
        | Some (_, tup) -> Some (id, tup)
        | None -> None)
      !ids
  in
  idx.entries <- idx.entries - (List.length !ids - List.length alive);
  if alive = [] then remove () else ids := List.map fst alive;
  List.map snd alive

(* Tick-carrying twin of [bucket_tuples], for the instrumented probe path
   (result-latency spans need the arrival tick of every matched tuple).
   Kept separate so the uninstrumented hot path pays nothing. *)
let bucket_entries (t : t) (idx : index) remove ids =
  let alive =
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt t.live id with
        | Some (tick, tup) -> Some (id, tick, tup)
        | None -> None)
      !ids
  in
  idx.entries <- idx.entries - (List.length !ids - List.length alive);
  if alive = [] then remove ()
  else ids := List.map (fun (id, _, _) -> id) alive;
  List.map (fun (_, tick, tup) -> (tick, tup)) alive

let probe_index (t : t) (idx : index) values =
  if List.exists Value.is_null values then []
  else
    match idx.buckets, values with
    | Int1 tbl, [ Value.Int k ] -> (
        match Hashtbl.find_opt tbl k with
        | None -> []
        | Some ids -> bucket_tuples t idx (fun () -> Hashtbl.remove tbl k) ids)
    | Int1 _, _ ->
        (* probing an Int-typed column with a non-Int value: by typing it
           cannot be stored here, so there is nothing to match *)
        []
    | Generic tbl, key -> (
        match KeyTbl.find_opt tbl key with
        | None -> []
        | Some ids ->
            bucket_tuples t idx (fun () -> KeyTbl.remove tbl key) ids)

let probe (t : t) ~attrs values = probe_index t (find_or_build_index t attrs) values

(* Handle-based probe for compiled probe programs: the index was resolved
   once at plan time, so the per-probe index search disappears and the
   single-value common case skips the key-list allocation entirely. *)
let probe_handle (t : t) (idx : index) v =
  match idx.buckets with
  | Int1 tbl -> (
      match v with
      | Value.Int k -> (
          match Hashtbl.find_opt tbl k with
          | None -> []
          | Some ids ->
              bucket_tuples t idx (fun () -> Hashtbl.remove tbl k) ids)
      | _ -> [])
  | Generic _ -> probe_index t idx [ v ]

let probe_entries_index (t : t) (idx : index) values =
  if List.exists Value.is_null values then []
  else
    match idx.buckets, values with
    | Int1 tbl, [ Value.Int k ] -> (
        match Hashtbl.find_opt tbl k with
        | None -> []
        | Some ids -> bucket_entries t idx (fun () -> Hashtbl.remove tbl k) ids)
    | Int1 _, _ -> []
    | Generic tbl, key -> (
        match KeyTbl.find_opt tbl key with
        | None -> []
        | Some ids ->
            bucket_entries t idx (fun () -> KeyTbl.remove tbl key) ids)

let probe_entries_handle (t : t) (idx : index) v =
  match idx.buckets with
  | Int1 tbl -> (
      match v with
      | Value.Int k -> (
          match Hashtbl.find_opt tbl k with
          | None -> []
          | Some ids ->
              bucket_entries t idx (fun () -> Hashtbl.remove tbl k) ids)
      | _ -> [])
  | Generic _ -> probe_entries_index t idx [ v ]

(* Id-level probe for the incremental purge: the ids of the live tuples in
   [v]'s bucket, with their tuples. *)
let probe_ids (t : t) (idx : index) v =
  let ids =
    match idx.buckets, v with
    | _, Value.Null -> None
    | Int1 tbl, Value.Int k -> Hashtbl.find_opt tbl k
    | Int1 _, _ -> None
    | Generic tbl, v -> KeyTbl.find_opt tbl [ v ]
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
let iter f t = Hashtbl.iter (fun _ (_, tup) -> f tup) t.live
let fold f init t = Hashtbl.fold (fun _ (_, tup) acc -> f acc tup) t.live init

let fold_entries f init t =
  Hashtbl.fold (fun _ (tick, tup) acc -> f acc tick tup) t.live init

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
    iter (fun tup -> if Streams.Punctuation.matches p tup then raise Found) t;
    false
  with Found -> true

(* --- serialization ------------------------------------------------------ *)

module Wire = Streams.Wire

let snapshot_version = 1

(* Live entries ascending by id, then the attr lists of every index. The
   tuples themselves carry no schema — the reader restores into a state
   compiled from the same plan. *)
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
    (List.map (fun (idx : index) -> idx.attrs) t.indexes)

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
  let index_attrs = Wire.R.list (Wire.R.list Wire.R.int) r in
  Hashtbl.reset t.live;
  t.next_id <- next_id;
  List.iter (fun idx -> clear_index idx) t.indexes;
  List.iter
    (fun attrs ->
      if not (List.exists (fun (i : index) -> i.attrs = attrs) t.indexes)
      then
        let buckets =
          match attrs with
          | [ a ] when (Schema.attr_at t.schema a).Schema.ty = Value.TInt ->
              Int1 (Hashtbl.create 64)
          | _ -> Generic (KeyTbl.create 64)
        in
        t.indexes <- { attrs; buckets; entries = 0 } :: t.indexes)
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
    Mem_estimate.table_entry_bytes ~width:(List.length idx.attrs)
    * buckets_in idx.buckets
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
