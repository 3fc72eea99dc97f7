(* OpenMetrics text exposition of a {!Registry}.

   Internal metric names follow "<op>.<metric>" (sometimes
   "<op>.<input>.<metric>"); the exposition turns the metric into the
   family name under a "pstream_" prefix and the rest into labels, so one
   family ("pstream_tuples_in") carries every operator as a label and
   scrapers can aggregate across operators without name games. *)

type sample = {
  name : string;
  labels : (string * string) list;
  value : float;
}

let valid_first c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let valid_rest c = valid_first c || (c >= '0' && c <= '9')

let sanitize s =
  if String.equal s "" then "_"
  else
    String.mapi
      (fun i c -> if (if i = 0 then valid_first c else valid_rest c) then c else '_')
      s

(* Multi-query runs prefix operator names with their owner —
   "q1/J2" for query q1's second join, "shared:G1/J1" for shared group
   G1's — so the owner becomes a [query] label and per-query rates break
   out while shared state is scraped once, under its group's name. *)
let split_owner op =
  match String.index_opt op '/' with
  | None -> [ ("op", op) ]
  | Some i ->
      [
        ("query", String.sub op 0 i);
        ("op", String.sub op (i + 1) (String.length op - i - 1));
      ]

(* "J1.R.punct_progress_min" -> family "punct_progress_min",
   labels [op=J1; input=R]. Dotless names become label-free families. *)
let split_name name =
  match String.rindex_opt name '.' with
  | None -> (name, [])
  | Some i ->
      let metric = String.sub name (i + 1) (String.length name - i - 1) in
      let prefix = String.sub name 0 i in
      let labels =
        match String.index_opt prefix '.' with
        | None -> split_owner prefix
        | Some j ->
            split_owner (String.sub prefix 0 j)
            @ [
                ( "input",
                  String.sub prefix (j + 1) (String.length prefix - j - 1) );
              ]
      in
      (metric, labels)

let escape_label_value s =
  let buf = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      let parts =
        List.map
          (fun (k, v) ->
            Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label_value v))
          labels
      in
      "{" ^ String.concat "," parts ^ "}"

type family_kind = Counter | Gauge | Histo

type family = {
  kind : family_kind;
  mutable lines : string list; (* reversed *)
}

let kind_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histo -> "histogram"

let family_name metric = "pstream_" ^ sanitize metric

(* Upper edge of the log2 bucket starting at [lower]: bucket 0 holds only
   the value 0; bucket [2^(i-1), 2^i) has integer upper edge 2^i - 1. *)
let bucket_le lower = if lower = 0 then 0 else (2 * lower) - 1

let render ~tick reg =
  let families : (string, family) Hashtbl.t = Hashtbl.create 32 in
  let fam name kind =
    match Hashtbl.find_opt families name with
    | Some f ->
        if f.kind <> kind then
          invalid_arg
            (Printf.sprintf "Openmetrics.render: family %s is both %s and %s"
               name (kind_string f.kind) (kind_string kind));
        f
    | None ->
        let f = { kind; lines = [] } in
        Hashtbl.add families name f;
        f
  in
  let add_line f line = f.lines <- line :: f.lines in
  let add_sample f name labels value =
    add_line f (Printf.sprintf "%s%s %s" name (render_labels labels) value)
  in
  (* Where on the element clock the rendering sits. *)
  let tick_fam = fam "pstream_tick" Gauge in
  add_sample tick_fam "pstream_tick" [] (string_of_int tick);
  List.iter
    (fun (name, v) ->
      let metric, labels = split_name name in
      let family = family_name metric in
      let f = fam family Counter in
      add_sample f (family ^ "_total") labels (string_of_int v))
    (Registry.counters reg);
  List.iter
    (fun (name, v) ->
      let metric, labels = split_name name in
      let family = family_name metric in
      let f = fam family Gauge in
      let agg = Registry.agg_to_string (Registry.gauge_agg reg name) in
      add_sample f family (labels @ [ ("agg", agg) ]) (string_of_int v))
    (Registry.gauges reg);
  List.iter
    (fun (name, h) ->
      let metric, labels = split_name name in
      let family = family_name metric in
      let f = fam family Histo in
      let cum = ref 0 in
      List.iter
        (fun (lower, count) ->
          cum := !cum + count;
          add_sample f (family ^ "_bucket")
            (labels @ [ ("le", string_of_int (bucket_le lower)) ])
            (string_of_int !cum))
        (Histogram.buckets h);
      add_sample f (family ^ "_bucket")
        (labels @ [ ("le", "+Inf") ])
        (string_of_int (Histogram.count h));
      add_sample f (family ^ "_sum") labels (string_of_int (Histogram.sum h));
      add_sample f (family ^ "_count") labels
        (string_of_int (Histogram.count h)))
    (Registry.histograms reg);
  let buf = Buffer.create 4096 in
  Hashtbl.fold (fun name f acc -> (name, f) :: acc) families []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, f) ->
         Buffer.add_string buf
           (Printf.sprintf "# TYPE %s %s\n" name (kind_string f.kind));
         List.iter
           (fun line ->
             Buffer.add_string buf line;
             Buffer.add_char buf '\n')
           (List.rev f.lines));
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* --- parsing (for pstream-obs top and the scrape smoke; not a full
   validator) --- *)

let parse_labels s =
  (* s is the text between '{' and '}' *)
  let n = String.length s in
  let buf = Buffer.create 16 in
  let rec skip_comma i = if i < n && s.[i] = ',' then skip_comma (i + 1) else i in
  let rec pairs i acc =
    let i = skip_comma i in
    if i >= n then Ok (List.rev acc)
    else
      match String.index_from_opt s i '=' with
      | None -> Error "label without '='"
      | Some eq ->
          let key = String.sub s i (eq - i) in
          if eq + 1 >= n || s.[eq + 1] <> '"' then Error "unquoted label value"
          else begin
            Buffer.clear buf;
            let rec value j =
              if j >= n then Error "unterminated label value"
              else
                match s.[j] with
                | '"' -> Ok (j + 1)
                | '\\' when j + 1 < n ->
                    (match s.[j + 1] with
                    | 'n' -> Buffer.add_char buf '\n'
                    | c -> Buffer.add_char buf c);
                    value (j + 2)
                | c ->
                    Buffer.add_char buf c;
                    value (j + 1)
            in
            match value (eq + 2) with
            | Error e -> Error e
            | Ok next -> pairs next ((key, Buffer.contents buf) :: acc)
          end
  in
  pairs 0 []

let parse_line line =
  match String.index_opt line '{' with
  | Some brace -> (
      match String.rindex_opt line '}' with
      | None -> Error "missing '}'"
      | Some close when close < brace -> Error "'}' before '{'"
      | Some close -> (
          let name = String.sub line 0 brace in
          let inner = String.sub line (brace + 1) (close - brace - 1) in
          let rest =
            String.trim
              (String.sub line (close + 1) (String.length line - close - 1))
          in
          match parse_labels inner with
          | Error e -> Error e
          | Ok labels -> (
              (* value [timestamp] — keep the first field *)
              let value_str =
                match String.index_opt rest ' ' with
                | None -> rest
                | Some sp -> String.sub rest 0 sp
              in
              match float_of_string_opt value_str with
              | None -> Error ("bad value: " ^ value_str)
              | Some value -> Ok { name; labels; value })))
  | None -> (
      match String.index_opt line ' ' with
      | None -> Error "sample without value"
      | Some sp -> (
          let name = String.sub line 0 sp in
          let rest = String.trim
              (String.sub line (sp + 1) (String.length line - sp - 1))
          in
          let value_str =
            match String.index_opt rest ' ' with
            | None -> rest
            | Some sp2 -> String.sub rest 0 sp2
          in
          match float_of_string_opt value_str with
          | None -> Error ("bad value: " ^ value_str)
          | Some value -> Ok { name; labels = []; value }))

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lines acc saw_eof =
    match lines with
    | [] ->
        if saw_eof then Ok (List.rev acc)
        else Error "missing '# EOF' terminator"
    | line :: rest ->
        let line = String.trim line in
        if String.equal line "" then go rest acc saw_eof
        else if saw_eof then Error "content after '# EOF'"
        else if String.equal line "# EOF" then go rest acc true
        else if String.length line > 0 && line.[0] = '#' then go rest acc false
        else (
          match parse_line line with
          | Error e -> Error (Printf.sprintf "%s (line: %s)" e line)
          | Ok s -> go rest (s :: acc) false)
  in
  go lines [] false

let label sample key = List.assoc_opt key sample.labels
