(* Parser for the stdout of bin/pstream_run.exe: the summary lines the
   benchmark checks (consumed/emitted counts, output hashes, watchdog
   alarms) and the rows of the printed state series. *)

type sample = {
  tick : int;
  state : int;
  index : int;
  bytes : int;
  puncts : int;
  emitted : int;
}

type query_line = { qid : string; q_emitted : int; q_hash : string }

type t = {
  consumed : int option;
  emitted : int option;  (** single-query mode only *)
  hash : string option;  (** single-query mode only *)
  series : sample list;  (** single-query mode only *)
  queries : query_line list;  (** multi-query mode, in printed order *)
  alarms : int;  (** [WATCHDOG ALARM] lines *)
}

let words line = String.split_on_char ' ' line |> List.filter (( <> ) "")

let series_row line =
  match words line with
  | [ "tick"; t; "state"; s; "index"; i; "~bytes"; b; "puncts"; p; "emitted"; e ] -> (
      match List.map int_of_string_opt [ t; s; i; b; p; e ] with
      | [ Some tick; Some state; Some index; Some bytes; Some puncts; Some emitted ] ->
          Some { tick; state; index; bytes; puncts; emitted }
      | _ -> None)
  | _ -> None

let scan line fmt k = try Some (Scanf.sscanf line fmt k) with _ -> None

let parse text =
  let empty =
    { consumed = None; emitted = None; hash = None; series = []; queries = []; alarms = 0 }
  in
  let step acc line =
    let line = String.trim line in
    match series_row line with
    | Some s -> { acc with series = s :: acc.series }
    | None -> (
        if String.starts_with ~prefix:"WATCHDOG ALARM" line then
          { acc with alarms = acc.alarms + 1 }
        else
          match
            scan line "consumed %d elements, emitted %d results%!" (fun c e -> (c, e))
          with
          | Some (c, e) -> { acc with consumed = Some c; emitted = Some e }
          | None -> (
              match scan line "consumed %d elements%!" Fun.id with
              | Some c -> { acc with consumed = Some c }
              | None -> (
                  match scan line "output hash: %s%!" Fun.id with
                  | Some h -> { acc with hash = Some h }
                  | None -> (
                      match
                        scan line "query %s@: emitted %d results, output hash %s%!"
                          (fun qid q_emitted q_hash -> { qid; q_emitted; q_hash })
                      with
                      | Some q -> { acc with queries = q :: acc.queries }
                      | None -> acc))))
  in
  let r = List.fold_left step empty (String.split_on_char '\n' text) in
  { r with series = List.rev r.series; queries = List.rev r.queries }

let peak f series = List.fold_left (fun acc s -> max acc (f s)) 0 series
