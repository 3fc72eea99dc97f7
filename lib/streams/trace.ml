type t = Element.t list

let streams t =
  List.sort_uniq String.compare (List.map Element.stream_name t)

let data_count t = List.length (List.filter Element.is_data t)
let punct_count t = List.length (List.filter Element.is_punct t)

let for_stream t s =
  List.filter (fun e -> String.equal (Element.stream_name e) s) t

type violation =
  | Tuple_after_punctuation of Relational.Tuple.t * Punctuation.t
  | Unregistered_punctuation of Punctuation.t

let pp_violation ppf = function
  | Tuple_after_punctuation (tup, p) ->
      Fmt.pf ppf "tuple %a arrived after punctuation %a" Relational.Tuple.pp
        tup Punctuation.pp p
  | Unregistered_punctuation p ->
      Fmt.pf ppf "punctuation %a instantiates no declared scheme"
        Punctuation.pp p

(* Earlier punctuations of one stream, indexed for [check]. Punctuations
   are grouped by shape — their constant positions and their watermark
   positions — and, within a shape, by their constant values. A bucket
   keeps its punctuations newest first with their arrival numbers, and the
   largest bound at the shape's first watermark position: a tuple at or
   above it can match none of them. On a well-formed trace, checking a
   tuple therefore costs one lookup per shape. *)
module Key = struct
  type t = Relational.Value.t list

  let equal a b = List.compare Relational.Value.compare a b = 0

  let hash k =
    List.fold_left (fun acc v -> (acc * 31) + Relational.Value.hash v) 7 k
end

module KeyTbl = Hashtbl.Make (Key)

type bucket = {
  mutable bound : Relational.Value.t option;
  mutable seen : (int * Punctuation.t) list;
}

type shape = {
  arity : int;
  consts : int list;
  below : int option;  (** first watermark position *)
  buckets : bucket KeyTbl.t;
}

let remember shapes seq p =
  let arity = Relational.Schema.arity (Punctuation.schema p) in
  let consts = ref [] and key = ref [] and below = ref None in
  for i = arity - 1 downto 0 do
    match Punctuation.pattern_at p i with
    | Punctuation.Const v ->
        consts := i :: !consts;
        key := v :: !key
    | Punctuation.Less_than _ -> below := Some i
    | Punctuation.Wildcard -> ()
  done;
  let consts = !consts and key = !key and below = !below in
  (* A constant Null never matches (SQL equality), so it needs no slot. *)
  if not (List.exists Relational.Value.is_null key) then begin
    let sh =
      match
        List.find_opt
          (fun sh -> sh.arity = arity && sh.consts = consts && sh.below = below)
          !shapes
      with
      | Some sh -> sh
      | None ->
          let sh = { arity; consts; below; buckets = KeyTbl.create 16 } in
          shapes := sh :: !shapes;
          sh
    in
    let b =
      match KeyTbl.find_opt sh.buckets key with
      | Some b -> b
      | None ->
          let b = { bound = None; seen = [] } in
          KeyTbl.add sh.buckets key b;
          b
    in
    b.seen <- (seq, p) :: b.seen;
    match below with
    | None -> ()
    | Some i -> (
        match (Punctuation.pattern_at p i, b.bound) with
        | Punctuation.Less_than v, Some w when Relational.Value.compare v w <= 0
          ->
            ()
        | Punctuation.Less_than v, _ -> b.bound <- Some v
        | _ -> ())
  end

let matching shapes tup =
  let hits sh =
    let key = Relational.Tuple.project tup sh.consts in
    if List.exists Relational.Value.is_null key then []
    else
      match KeyTbl.find_opt sh.buckets key with
      | None -> []
      | Some b -> (
          match (sh.below, b.bound) with
          | Some i, Some w
            when Relational.Value.compare (Relational.Tuple.get tup i) w >= 0 ->
              []
          | _ -> List.filter (fun (_, p) -> Punctuation.matches p tup) b.seen)
  in
  (* a punctuation of another arity matches nothing *)
  List.concat_map
    (fun sh -> if sh.arity = Relational.Tuple.arity tup then hits sh else [])
    shapes

let check ~schemes t =
  (* Single pass, remembering each stream's punctuations so far. *)
  let seen : (string, shape list ref) Hashtbl.t = Hashtbl.create 8 in
  let past s =
    match Hashtbl.find_opt seen s with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add seen s r;
        r
  in
  let seq = ref 0 in
  List.concat_map
    (fun e ->
      incr seq;
      let s = Element.stream_name e in
      match e with
      | Element.Punct p ->
          remember (past s) !seq p;
          if Scheme.Set.instantiated_by schemes p = None then
            [ Unregistered_punctuation p ]
          else []
      | Element.Data tup -> (
          match matching !(past s) tup with
          | [] -> []
          | hits ->
              (* newest punctuation first, as a scan of the stream's
                 history would report them *)
              List.sort (fun (a, _) (b, _) -> Int.compare b a) hits
              |> List.map (fun (_, p) -> Tuple_after_punctuation (tup, p))))
    t

let interleave ?(seed = 42) weighted =
  let weighted =
    List.filter (fun (_, w) -> w > 0) weighted
    |> List.map (fun (tr, w) -> (ref tr, w))
  in
  let state = ref seed in
  (* xorshift-style deterministic PRNG; quality is irrelevant, determinism
     and portability are what matters. *)
  let next_int bound =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state mod bound
  in
  let rec loop acc =
    let live = List.filter (fun (tr, _) -> !tr <> []) weighted in
    match live with
    | [] -> List.rev acc
    | _ ->
        let total = List.fold_left (fun s (_, w) -> s + w) 0 live in
        let pick = next_int total in
        let rec choose acc_w = function
          | [] -> assert false
          | (tr, w) :: rest ->
              if pick < acc_w + w then tr else choose (acc_w + w) rest
        in
        let tr = choose 0 live in
        (match !tr with
        | [] -> assert false
        | e :: rest ->
            tr := rest;
            loop (e :: acc))
  in
  loop []

let round_robin traces =
  let refs = List.map ref traces in
  let rec loop acc progressed =
    let acc, progressed =
      List.fold_left
        (fun (acc, progressed) tr ->
          match !tr with
          | [] -> (acc, progressed)
          | e :: rest ->
              tr := rest;
              (e :: acc, true))
        (acc, progressed) refs
    in
    if progressed then loop acc false else List.rev acc
  in
  loop [] false

let pp ppf t = Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Element.pp) t
