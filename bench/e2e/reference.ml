(* The expected answer of a replay or multi-query workload, derived from
   the generated key set alone (see Gen): one output hash and one result
   count per query. Single-query workloads use the empty qid. The open
   loop checks itself the same way (Open_loop). *)

type t = { qid : string; hash : string; count : int }

let expected ~queries_dir ~seed ~shape (w : Workloads.t) =
  let answer qid file ~offset =
    let q = Query.Parser.parse_file (Filename.concat queries_dir file) in
    let keys = Gen.keys ~offset shape in
    { qid; hash = Gen.reference_hash (Gen.output_schema q) keys; count = List.length keys }
  in
  match w.kind with
  | Workloads.Replay { query; _ } -> [ answer "" query ~offset:(Gen.key_offset seed) ]
  | Workloads.Multi { queries } ->
      (* pstream_run's own generator: keys from 0, no seed *)
      List.map (fun f -> answer (Filename.remove_extension f) f ~offset:0) queries
  | Workloads.Open_loop _ -> invalid_arg "Reference.expected: the open loop checks itself"

(* Check a run's (qid, hash, count) answers against the reference; [None]
   when every query matches, otherwise what differed. *)
let mismatch expected got =
  let problems =
    List.filter_map
      (fun e ->
        match List.find_opt (fun (qid, _, _) -> qid = e.qid) got with
        | None -> Some (Printf.sprintf "query %S: no answer" e.qid)
        | Some (_, h, c) when h <> e.hash || c <> e.count ->
            Some
              (Printf.sprintf "query %S: hash %s count %d, expected %s count %d" e.qid h c
                 e.hash e.count)
        | Some _ -> None)
      expected
  in
  match problems with [] -> None | ps -> Some (String.concat "; " ps)
