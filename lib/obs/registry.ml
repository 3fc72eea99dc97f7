type agg = Sum | Max | Min

let agg_to_string = function Sum -> "sum" | Max -> "max" | Min -> "min"

type gauge = { mutable level : int; mutable agg : agg }

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 16;
  }

let incr ?(by = 1) t name =
  if by < 0 then invalid_arg "Registry.incr: negative increment";
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let set_gauge ?(agg = Max) t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some g ->
      g.level <- v;
      g.agg <- agg
  | None -> Hashtbl.add t.gauges name { level = v; agg }

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some g -> g.level | None -> 0

let gauge_agg t name =
  match Hashtbl.find_opt t.gauges name with Some g -> g.agg | None -> Max

let sorted tbl value =
  Hashtbl.fold (fun name x acc -> (name, value x) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted t.counters ( ! )
let gauges t = sorted t.gauges (fun g -> g.level)

let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add t.hists name h;
      h

let observe ?n t name v = Histogram.observe ?n (histogram t name) v
let histograms t = sorted t.hists Fun.id

let merged_histogram t suffix =
  let dotted = "." ^ suffix in
  let matches name =
    String.equal name suffix
    || String.length name > String.length dotted
       && String.equal dotted
            (String.sub name
               (String.length name - String.length dotted)
               (String.length dotted))
  in
  let merged =
    List.fold_left
      (fun acc (name, h) ->
        if matches name then
          Some (match acc with None -> h | Some m -> Histogram.merge m h)
        else acc)
      None (histograms t)
  in
  match merged with
  | Some h when Histogram.count h > 0 -> Some h
  | _ -> None

(* Aggregation across shards of a parallel run: counters add, gauges
   combine under their declared {!agg} (a partitioned level like state
   bytes sums; a progress frontier keeps its extremum; the default is
   max), histograms merge bucket-wise. The combinations commute, so
   each table is folded in hash order. *)
let merged ts =
  let m = create () in
  List.iter
    (fun t ->
      Hashtbl.iter (fun k r -> incr ~by:!r m k) t.counters;
      Hashtbl.iter
        (fun k g ->
          let v =
            match Hashtbl.find_opt m.gauges k with
            | None -> g.level
            | Some cur -> (
                match g.agg with
                | Sum -> cur.level + g.level
                | Max -> max cur.level g.level
                | Min -> min cur.level g.level)
          in
          set_gauge ~agg:g.agg m k v)
        t.gauges;
      Hashtbl.iter
        (fun k h ->
          let into =
            Option.value (Hashtbl.find_opt m.hists k)
              ~default:(Histogram.create ())
          in
          Hashtbl.replace m.hists k (Histogram.merge into h))
        t.hists)
    ts;
  m

let clear_gauges t = Hashtbl.reset t.gauges

let to_json t =
  let ints alist = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) alist) in
  Json.Obj
    [
      ("counters", ints (counters t));
      ("gauges", ints (gauges t));
      ( "histograms",
        Json.Obj
          (List.map (fun (k, h) -> (k, Histogram.to_json h)) (histograms t)) );
    ]
