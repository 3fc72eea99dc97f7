let n_buckets = 63

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  {
    counts = Array.make n_buckets 0;
    total = 0;
    sum = 0;
    min_v = max_int;
    max_v = 0;
  }

(* 0 -> 0; v in [2^(i-1), 2^i) -> i *)
let bucket_of v =
  if v <= 0 then 0
  else
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    min (n_buckets - 1) (bits 0 v)

let lower_bound i = if i = 0 then 0 else 1 lsl (i - 1)

let observe ?(n = 1) t v =
  if n < 0 then invalid_arg "Histogram.observe: negative multiplicity";
  if n > 0 then begin
    let v = max 0 v in
    let i = bucket_of v in
    t.counts.(i) <- t.counts.(i) + n;
    t.total <- t.total + n;
    t.sum <- t.sum + (n * v);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let count t = t.total
let sum t = t.sum
let min_value t = if t.total = 0 then 0 else t.min_v
let max_value t = t.max_v
let mean t = if t.total = 0 then 0.0 else float_of_int t.sum /. float_of_int t.total

let percentile t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Histogram.percentile: p outside [0,1]";
  if t.total = 0 then 0
  else begin
    let rank =
      max 1 (int_of_float (ceil (p *. float_of_int t.total)))
    in
    let rec go i seen =
      if i >= n_buckets then t.max_v
      else
        let seen = seen + t.counts.(i) in
        if seen >= rank then lower_bound i else go (i + 1) seen
    in
    go 0 0
  end

let buckets t =
  Array.to_list t.counts
  |> List.mapi (fun i c -> (lower_bound i, c))
  |> List.filter (fun (_, c) -> c > 0)

let merge a b =
  let t = create () in
  Array.iteri (fun i c -> t.counts.(i) <- c + b.counts.(i)) a.counts;
  t.total <- a.total + b.total;
  t.sum <- a.sum + b.sum;
  t.min_v <- min a.min_v b.min_v;
  t.max_v <- max a.max_v b.max_v;
  t

let to_json t =
  Json.Obj
    [
      ("count", Json.Int (count t));
      ("sum", Json.Int (sum t));
      ("min", Json.Int (min_value t));
      ("max", Json.Int (max_value t));
      ("mean", Json.Float (mean t));
      ("p50", Json.Int (percentile t 0.5));
      ("p90", Json.Int (percentile t 0.9));
      ("p99", Json.Int (percentile t 0.99));
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, c) -> Json.List [ Json.Int lo; Json.Int c ])
             (buckets t)) );
    ]
