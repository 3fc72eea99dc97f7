(* In-memory spans recorded by the benchmark around its calls into each
   layer: name, start, end, parent, and a run id shared by every span of
   one workload run. Spans are kept in memory and written out when the
   benchmark ends, so recording does no I/O inside a timed region. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  run_id : string;
  start_ns : int;
  end_ns : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type recorder = {
  run_id : string;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
}

let recorder run_id = { run_id; next = 0; stack = []; spans = [] }

let with_span r name f =
  let id = r.next in
  r.next <- id + 1;
  let parent = match r.stack with p :: _ -> Some p | [] -> None in
  r.stack <- id :: r.stack;
  let start_ns = now_ns () in
  let finish () =
    let end_ns = now_ns () in
    r.stack <- List.tl r.stack;
    r.spans <- { id; parent; name; run_id = r.run_id; start_ns; end_ns } :: r.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Spans in start order. *)
let spans r = List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id)) r.spans

(* A way to time the calls of a pipeline: into a recorder in the traced
   pass, or not at all (the same code path then measures set-up without
   spans). *)
type timer = { span : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { span = (fun _ f -> f ()) }
let duration_ns (s : span) = s.end_ns - s.start_ns

(* Self time: the span's duration minus the part of its interval that its
   direct children cover (overlapping children are counted once). *)
let self_ns all (s : span) =
  let intervals =
    List.filter_map
      (fun c ->
        if c.parent = Some s.id && c.run_id = s.run_id then
          let a = max s.start_ns c.start_ns and b = min s.end_ns c.end_ns in
          if b > a then Some (a, b) else None
        else None)
      all
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, min_int) intervals
  in
  duration_ns s - covered

(* Total duration of the spans called [name], in ms. *)
let total_ms name all =
  let ns =
    List.fold_left (fun acc s -> if s.name = name then acc + duration_ns s else acc) 0 all
  in
  float_of_int ns /. 1e6

let to_json (s : span) =
  Obs.Json.Obj
    [
      ("run_id", Obs.Json.String s.run_id);
      ("id", Obs.Json.Int s.id);
      ("parent", match s.parent with Some p -> Obs.Json.Int p | None -> Obs.Json.Null);
      ("name", Obs.Json.String s.name);
      ("start_ns", Obs.Json.Int s.start_ns);
      ("end_ns", Obs.Json.Int s.end_ns);
    ]

let of_json j =
  let int k = Option.bind (Obs.Json.member k j) Obs.Json.to_int in
  match (int "id", int "start_ns", int "end_ns") with
  | Some id, Some start_ns, Some end_ns ->
      Some
        {
          id;
          parent = int "parent";
          name = Option.value ~default:"" (Option.bind (Obs.Json.member "name" j) Obs.Json.to_str);
          run_id =
            Option.value ~default:"" (Option.bind (Obs.Json.member "run_id" j) Obs.Json.to_str);
          start_ns;
          end_ns;
        }
  | _ -> None
