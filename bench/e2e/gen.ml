(* Seeded round traces and their reference answers.

   The shape is Workload.Synth.round_trace's: in round r every stream emits
   one tuple per key k (all attributes equal to k), and the round's
   punctuations (one per scheme and key) arrive [lag] rounds later. The
   seed adds two things: a key offset, and a permutation of each round's
   data block. Offsets keep every key at seven digits, so the trace file
   has the same size for every seed. Punctuation blocks keep their order:
   permuting them would change the work (a watermark arriving after a
   larger one is dropped as subsumed) and the state a sample sees between
   two punctuations, and the benchmark needs both to be the same for every
   seed.

   Every result of such a trace has each attribute equal to its round key,
   so the expected answer is one all-k tuple per key over the query's
   output schema: the reference hash needs no engine run. *)

open Relational
module Element = Streams.Element
module Stream_def = Streams.Stream_def
module Scheme = Streams.Scheme

type shape = { rounds : int; fanin : int; lag : int }

let key_offset seed = 1_000_000 + (((seed mod 1000) + 1000) mod 1000 * 1000)
let keys ~offset shape = List.init (shape.rounds * shape.fanin) (fun j -> offset + j)

let tuple schema k =
  Tuple.make schema (List.map (fun _ -> Value.Int k) (Schema.attributes schema))

let round_trace ~seed defs shape =
  if shape.rounds < 1 || shape.fanin < 1 || shape.lag < 0 then
    invalid_arg "Gen.round_trace: bad shape";
  let rng = Streams.Rng.create ~seed in
  let offset = key_offset seed in
  let schemes = List.concat_map Stream_def.schemes defs in
  let round_keys r = List.init shape.fanin (fun i -> offset + (r * shape.fanin) + i) in
  let data r =
    List.concat_map
      (fun k -> List.map (fun d -> Element.Data (tuple (Stream_def.schema d) k)) defs)
      (round_keys r)
    |> Streams.Rng.shuffle rng
  in
  let puncts r =
    List.concat_map
      (fun k ->
        List.map
          (fun sch ->
            Element.Punct
              (Scheme.instantiate sch
                 (List.map (fun a -> (a, Value.Int k)) (Scheme.punctuatable_attrs sch))))
          schemes)
      (round_keys r)
  in
  List.concat
    (List.init (shape.rounds + shape.lag) (fun r ->
         let d = if r < shape.rounds then data r else [] in
         let p = if r >= shape.lag then puncts (r - shape.lag) else [] in
         d @ p))

let elements defs shape =
  let per_key =
    List.length defs + List.length (List.concat_map Stream_def.schemes defs)
  in
  shape.rounds * shape.fanin * per_key

let plan q = Query.Plan.mjoin (Query.Cjq.stream_names q)
let output_schema q = Engine.Executor.output_schema (Engine.Executor.compile q (plan q))

let reference_hash schema keys =
  Engine.Executor.output_hash (List.map (fun k -> Element.Data (tuple schema k)) keys)
