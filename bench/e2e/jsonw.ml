(* JSON output for results files and the final summary line. Values are
   [Obs.Json.t] (its parser reads them back), but floats are printed with
   every digit needed to round-trip: [Obs.Json] keeps six significant
   digits, which would make two different timings print alike. *)

module J = Obs.Json

let float_lexeme f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | J.Null -> Buffer.add_string buf "null"
  | J.Bool b -> Buffer.add_string buf (string_of_bool b)
  | J.Int i -> Buffer.add_string buf (string_of_int i)
  | J.Float f -> Buffer.add_string buf (float_lexeme f)
  | J.String s -> escape buf s
  | J.List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        vs;
      Buffer.add_char buf ']'
  | J.Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

let write_file path v =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (to_string v ^ "\n"))

let read_file path = J.parse (In_channel.with_open_bin path In_channel.input_all)

(* Total accessors used when reading results back. *)
let member k v = Option.value (J.member k v) ~default:J.Null
let num v = match J.to_float v with Some f -> f | None -> Float.nan
let str v = Option.value (J.to_str v) ~default:""
let list v = Option.value (J.to_list v) ~default:[]
let obj v = Option.value (J.to_obj v) ~default:[]
let floats l = J.List (List.map (fun f -> J.Float f) l)
