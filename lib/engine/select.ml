open Relational
module Element = Streams.Element

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type condition = { attr : string; op : comparison; value : Value.t }

let eval condition tuple =
  let x = Tuple.get_named tuple condition.attr in
  match condition.op, x with
  | _, Value.Null -> false
  | Eq, _ -> Value.equal x condition.value
  | Ne, _ -> not (Value.equal x condition.value)
  | Lt, _ -> Value.compare x condition.value < 0
  | Le, _ -> Value.compare x condition.value <= 0
  | Gt, _ -> Value.compare x condition.value > 0
  | Ge, _ -> Value.compare x condition.value >= 0

let create ?(name = "select") ~input ~conditions () =
  List.iter
    (fun c ->
      if not (Schema.mem input c.attr) then
        invalid_arg
          (Printf.sprintf "Select.create: unknown attribute %s" c.attr))
    conditions;
  let stats = ref Operator.empty_stats in
  let push = function
    | Element.Data tup ->
        stats := { !stats with tuples_in = !stats.tuples_in + 1 };
        if List.for_all (fun c -> eval c tup) conditions then begin
          stats := { !stats with tuples_out = !stats.tuples_out + 1 };
          [ Element.Data tup ]
        end
        else []
    | Element.Punct p ->
        stats :=
          {
            !stats with
            puncts_in = !stats.puncts_in + 1;
            puncts_out = !stats.puncts_out + 1;
          };
        [ Element.Punct p ]
  in
  {
    Operator.name;
    out_schema = input;
    input_names = [ Schema.stream_name input ];
    push = Operator.batch_of_push push;
    flush = (fun () -> []);
    data_state_size = (fun () -> 0);
    punct_state_size = (fun () -> 0);
    index_state_size = (fun () -> 0);
    state_bytes = (fun () -> 0);
    stats = (fun () -> !stats);
    persistence = Operator.Stateless;
  }
