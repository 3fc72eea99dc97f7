type t = { emit : Event.t -> unit; close : unit -> unit }

let null = { emit = (fun _ -> ()); close = (fun () -> ()) }

let memory () =
  let events = ref [] in
  ( { emit = (fun e -> events := e :: !events); close = (fun () -> ()) },
    fun () -> List.rev !events )

let jsonl_file path =
  let oc = open_out path in
  {
    emit =
      (fun e ->
        output_string oc (Event.to_line e);
        output_char oc '\n');
    close = (fun () -> close_out oc);
  }
