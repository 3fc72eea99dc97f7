(* Client-side plumbing of pstream-obs's scrape, top and tail commands:
   one-shot scrapes of a live exporter endpoint, sample accessors over the
   parsed exposition, the top frame renderer, and the trace
   pretty-printer. *)

type scraped = {
  text : string;
  samples : Obs.Openmetrics.sample list;
  time : float;  (** wall clock at scrape, seconds *)
}

let scrape address =
  match Obs.Exporter.fetch address with
  | Error e -> Error e
  | Ok text -> (
      match Obs.Openmetrics.parse text with
      | Error e -> Error (Fmt.str "invalid exposition: %s" e)
      | Ok samples -> Ok { text; samples; time = Unix.gettimeofday () })

(* --- sample accessors -------------------------------------------------- *)

let matches_labels wanted (s : Obs.Openmetrics.sample) =
  List.for_all
    (fun (k, v) -> Obs.Openmetrics.label s k = Some v)
    wanted

let find ?(labels = []) scraped name =
  List.find_opt
    (fun (s : Obs.Openmetrics.sample) ->
      String.equal s.Obs.Openmetrics.name name && matches_labels labels s)
    scraped.samples
  |> Option.map (fun (s : Obs.Openmetrics.sample) -> s.Obs.Openmetrics.value)

let value ?labels scraped name =
  match find ?labels scraped name with Some v -> v | None -> 0.

let tick scraped = int_of_float (value scraped "pstream_tick")

(* Operators present in the exposition, in first-appearance order. *)
let operators scraped =
  List.fold_left
    (fun acc (s : Obs.Openmetrics.sample) ->
      match Obs.Openmetrics.label s "op" with
      | Some op when not (List.mem op acc) -> acc @ [ op ]
      | _ -> acc)
    [] scraped.samples

let inputs_of scraped family ~op =
  List.filter_map
    (fun (s : Obs.Openmetrics.sample) ->
      if
        String.equal s.Obs.Openmetrics.name family
        && Obs.Openmetrics.label s "op" = Some op
      then Obs.Openmetrics.label s "input"
      else None)
    scraped.samples

(* Percentile out of the cumulative [le] buckets of [family{op=...}]: the
   first bucket edge whose cumulative count reaches rank ceil(p * total).
   Mirrors {!Obs.Histogram.percentile}'s bucket-resolution semantics. *)
let hist_percentile scraped family ~op p =
  let buckets =
    List.filter_map
      (fun (s : Obs.Openmetrics.sample) ->
        if
          String.equal s.Obs.Openmetrics.name (family ^ "_bucket")
          && Obs.Openmetrics.label s "op" = Some op
        then
          match Obs.Openmetrics.label s "le" with
          | Some "+Inf" -> None
          | Some le -> Option.map (fun e -> (e, s.Obs.Openmetrics.value)) (float_of_string_opt le)
          | None -> None
        else None)
      scraped.samples
  in
  let total = value ~labels:[ ("op", op) ] scraped (family ^ "_count") in
  if total <= 0. then 0.
  else
    let rank = Float.max 1. (Float.round (Float.of_int (int_of_float (ceil (p *. total))))) in
    let rec go = function
      | [] -> ( match List.rev buckets with (e, _) :: _ -> e | [] -> 0.)
      | (edge, cum) :: rest -> if cum >= rank then edge else go rest
    in
    go buckets

(* --- the top frame ------------------------------------------------------ *)

let mega v = v /. 1_000_000.

let progress_cell scraped ~op =
  let ins = inputs_of scraped "pstream_punct_progress_min" ~op in
  if ins = [] then "-"
  else
    String.concat " "
      (List.map
         (fun input ->
           let g family =
             int_of_float
               (value ~labels:[ ("op", op); ("input", input) ] scraped family)
           in
           Fmt.str "%s:%d..%d" input
             (g "pstream_punct_progress_min")
             (g "pstream_punct_progress_max"))
         ins)

let rate ~prev ~cur name ~labels =
  match prev with
  | None -> None
  | Some p ->
      let dt = cur.time -. p.time in
      if dt <= 0. then None
      else Some ((value ~labels cur name -. value ~labels p name) /. dt)

let render_frame ?prev ~endpoint cur =
  let buf = Buffer.create 2048 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "pstream top — %s — tick %d%s" endpoint (tick cur)
    (match prev with
    | Some p -> Fmt.str " — refresh %.1fs" (cur.time -. p.time)
    | None -> "");
  let gc_rate =
    match rate ~prev ~cur "pstream_gc_minor_words_total" ~labels:[] with
    | Some r -> Fmt.str "%.1f Mw/s" (mega r)
    | None -> "-"
  in
  line "gc: minor %s  heap %.1f Mw  minor_coll %.0f  major_coll %.0f"
    gc_rate
    (mega (value cur "pstream_gc_heap_words"))
    (value cur "pstream_gc_minor_collections_total")
    (value cur "pstream_gc_major_collections_total");
  line "";
  line "%-10s %10s %10s %8s %10s %9s %13s %s" "operator" "tup_in" "tup_out"
    "out/s" "state_B" "lag(p99)" "lat(p50/p99)" "punct progress";
  List.iter
    (fun op ->
      let labels = [ ("op", op) ] in
      let c name = value ~labels cur name in
      let out_rate =
        match rate ~prev ~cur "pstream_tuples_out_total" ~labels with
        | Some r -> Fmt.str "%.1f" r
        | None -> "-"
      in
      line "%-10s %10.0f %10.0f %8s %10.0f %9.0f %7.0f/%-5.0f %s" op
        (c "pstream_tuples_in_total")
        (c "pstream_tuples_out_total")
        out_rate
        (c "pstream_state_bytes")
        (hist_percentile cur "pstream_purge_lag" ~op 0.99)
        (hist_percentile cur "pstream_result_latency" ~op 0.5)
        (hist_percentile cur "pstream_result_latency" ~op 0.99)
        (progress_cell cur ~op))
    (operators cur);
  Buffer.contents buf

(* Live loop: redraw in place until the endpoint disappears (run over) or
   the user interrupts. [once] renders a single frame without the screen
   dance (CI-friendly). Exit code 0 when at least one frame was drawn. *)
let run_top ~address ~interval ~once =
  let endpoint = Fmt.str "%a" Obs.Exporter.pp_address address in
  if once then (
    match scrape address with
    | Error e ->
        Fmt.epr "pstream top: %s@." e;
        1
    | Ok cur ->
        print_string (render_frame ~endpoint cur);
        0)
  else begin
    let prev = ref None in
    let frames = ref 0 in
    let rec loop misses =
      match scrape address with
      | Error e ->
          (* A vanished endpoint right after frames were drawn is the run
             finishing — normal exit. Persistent failure with nothing ever
             drawn is an error. *)
          if !frames > 0 then 0
          else if misses >= 3 then begin
            Fmt.epr "pstream top: %s@." e;
            1
          end
          else begin
            Unix.sleepf interval;
            loop (misses + 1)
          end
      | Ok cur ->
          (* home + clear-to-end: repaint without scrollback spam *)
          print_string "\027[H\027[J";
          print_string (render_frame ?prev:!prev ~endpoint cur);
          flush stdout;
          incr frames;
          prev := Some cur;
          Unix.sleepf interval;
          loop 0
    in
    loop 0
  end

(* --- scrape validation -------------------------------------------------- *)

(* Families announced by the exposition's TYPE lines: (name, kind). *)
let families_of_text text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ "#"; "TYPE"; name; kind ] -> Some (name, kind)
         | _ -> None)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Families the catalog (docs/TELEMETRY.md) does not mention — a scrape
   smoke fails on these so the metric catalog cannot silently rot. *)
let catalog_missing ~catalog_text families =
  let mentioned name =
    let nl = String.length name and cl = String.length catalog_text in
    let rec go i =
      if i + nl > cl then false
      else if String.equal (String.sub catalog_text i nl) name then true
      else go (i + 1)
    in
    go 0
  in
  List.filter (fun (name, _) -> not (mentioned name)) families

(* --- trace pretty-printing (pstream-obs tail) --------------------------- *)

let event_kind e =
  match Obs.Json.member "ev" (Obs.Event.to_json e) with
  | Some (Obs.Json.String s) -> s
  | _ -> "?"

let summarize e =
  let j = Obs.Event.to_json e in
  let fields =
    match j with
    | Obs.Json.Obj fs ->
        List.filter (fun (k, _) -> k <> "ev" && k <> "tick" && k <> "op") fs
    | _ -> []
  in
  String.concat "  "
    (List.map (fun (k, v) -> Fmt.str "%s=%s" k (Obs.Json.to_string v)) fields)

let pp_event ppf e =
  Fmt.pf ppf "%8d  %-13s %-8s %s" (Obs.Event.tick_of e) (event_kind e)
    (match Obs.Event.op_of e with Some op -> op | None -> "-")
    (summarize e)
