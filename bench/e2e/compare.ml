(* [pbench compare BASE.json NEW.json]: each (workload, metric) of two
   results files, as the reported value (the statistic the summary line
   carries, see Bench.value_of) and the quartiles of the run samples,
   against the metric's bound, following the rules of a no-regression and
   a gain claim:

   - a value worse by more than the bound is a regression, unless the
     run-to-run spread (IQR / median, either side) is wider than the bound
     — then the pair is "unresolved" — and every new run reading worse
     than every base run makes it a regression again;
   - a gain needs at least ten sample pairs, at least 9/10 of them won
     (ties count for neither side), and a value difference larger than the
     base runs' own interquartile distance;
   - a higher share of failed runs is a regression.

   Exits 1 when a gated metric regressed (the open loop's latencies are
   reported but not gated). The bound is the metric's BENCHMARK.json
   bound as BASE recorded it, so the parent's benchmark definition judges
   the change. *)

module J = Obs.Json

type side = { value : float; q1 : float; q3 : float; samples : float list }

type verdict = Same | Gain | Better_unconfirmed | Unresolved | Regression

let verdict_to_string = function
  | Same -> "same"
  | Gain -> "GAIN"
  | Better_unconfirmed -> "better (unconfirmed)"
  | Unresolved -> "unresolved"
  | Regression -> "REGRESSION"

let side_of ~value samples =
  let q1, _, q3 = Stats.quartiles samples in
  { value; q1; q3; samples }

(* [worse_by ~higher b n] — relative change of [n] against [b], positive
   when [n] is worse. *)
let worse_by ~higher b n =
  if b = 0. then if n = b then 0. else if (n > b) = higher then Float.neg_infinity else Float.infinity
  else
    let d = (n -. b) /. Float.abs b in
    if higher then -.d else d

let rec zip a b = match (a, b) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []

let judge ~higher ~bound base next =
  let better x y = if higher then x > y else x < y in
  let pairs = zip base.samples next.samples in
  let wins = List.length (List.filter (fun (b, n) -> better n b) pairs) in
  let all_worse =
    List.for_all (fun n -> List.for_all (fun b -> better b n) base.samples) next.samples
  in
  let all_better =
    List.for_all (fun n -> List.for_all (fun b -> better n b) base.samples) next.samples
  in
  let spread = Float.max (Stats.rel_iqr base.samples) (Stats.rel_iqr next.samples) in
  let delta = worse_by ~higher base.value next.value in
  let verdict =
    if delta > bound && (spread <= bound || all_worse) then Regression
    else if spread > bound && not all_better then Unresolved
    else if delta < 0. && Float.abs (next.value -. base.value) > base.q3 -. base.q1 then
      if
        List.length pairs >= 10 && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
      then Gain
      else Better_unconfirmed
    else Same
  in
  (verdict, delta, wins, List.length pairs)

let samples_of m = List.filter_map J.to_float (Jsonw.list (Jsonw.member "samples" m))

let workloads j =
  List.map (fun o -> (Jsonw.str (Jsonw.member "name" o), o)) (Jsonw.list (Jsonw.member "workloads" j))

let pp_side ppf s = Fmt.pf ppf "%.4g [%.4g, %.4g]" s.value s.q1 s.q3

let main base_path new_path =
  match (Jsonw.read_file base_path, Jsonw.read_file new_path) with
  | Error e, _ | _, Error e ->
      Fmt.epr "pbench compare: %s@." e;
      2
  | Ok base, Ok next ->
      let regressions = ref 0 in
      Fmt.pr "%-16s %-18s %-30s %-30s %8s %6s %7s %s@." "workload" "metric" "base value [q1, q3]"
        "new value [q1, q3]" "worse by" "bound" "wins" "verdict";
      List.iter
        (fun (name, bw) ->
          match List.assoc_opt name (workloads next) with
          | None -> Fmt.pr "%-16s (absent from %s)@." name new_path
          | Some nw ->
              List.iter
                (fun (metric, bm) ->
                  let nm = Jsonw.member metric (Jsonw.member "metrics" nw) in
                  let bs = samples_of bm and ns = samples_of nm in
                  if bs <> [] && ns <> [] then begin
                    let higher = Jsonw.str (Jsonw.member "better" bm) = "higher" in
                    let bound = Jsonw.num (Jsonw.member "bound" bm) in
                    let side m s = side_of ~value:(Jsonw.num (Jsonw.member "value" m)) s in
                    let b = side bm bs and n = side nm ns in
                    let verdict, delta, wins, pairs =
                      if metric = Workloads.failed_runs.m_name then
                        ((if n.value > b.value then Regression else Same), n.value -. b.value, 0, 0)
                      else judge ~higher ~bound b n
                    in
                    let gated = Jsonw.member "gated" bm <> J.Bool false in
                    if verdict = Regression && gated then incr regressions;
                    Fmt.pr "%-16s %-18s %-30s %-30s %+7.1f%% %5.0f%% %3d/%-3d %s@." name metric
                      (Fmt.str "%a" pp_side b) (Fmt.str "%a" pp_side n) (100. *. delta)
                      (100. *. bound) wins pairs (verdict_to_string verdict)
                  end)
                (Jsonw.obj (Jsonw.member "metrics" bw)))
        (workloads base);
      if !regressions > 0 then begin
        Fmt.pr "%d regression(s)@." !regressions;
        1
      end
      else 0
