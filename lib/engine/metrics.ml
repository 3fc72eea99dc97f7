type sample = {
  tick : int;
  data_state : int;
  punct_state : int;
  index_state : int;
  state_bytes : int;
  emitted : int;
}

type t = { sample_every : int; mutable samples : sample list (* reversed *) }

let create ?(sample_every = 100) () = { sample_every; samples = [] }

let force t ~tick ~data_state ~punct_state ?(index_state = 0)
    ?(state_bytes = 0) ~emitted () =
  t.samples <-
    { tick; data_state; punct_state; index_state; state_bytes; emitted }
    :: t.samples

let observe t ~tick ~data_state ~punct_state ?(index_state = 0)
    ?(state_bytes = 0) ~emitted () =
  if tick mod t.sample_every = 0 then
    force t ~tick ~data_state ~punct_state ~index_state ~state_bytes ~emitted
      ()

(* Ticks start at 1, so a run shorter than [sample_every] never lands on the
   sampling grid: without a flush the series would be empty and final/peak_*
   would mislead. [flush] records the closing sample exactly once — a
   same-tick sample from [observe] is replaced (a final purge round may
   have shrunk the state since), never duplicated. *)
let flush t ~tick ~data_state ~punct_state ?(index_state = 0)
    ?(state_bytes = 0) ~emitted () =
  (match t.samples with
  | { tick = last; _ } :: rest when last = tick -> t.samples <- rest
  | _ -> ());
  force t ~tick ~data_state ~punct_state ~index_state ~state_bytes ~emitted ()

let samples t = List.rev t.samples

(* Samples are flat integer records, so structural equality is the right
   notion: two runs recorded the same series iff this holds. *)
let equal a b = samples a = samples b

let peak_data_state t =
  List.fold_left (fun acc s -> max acc s.data_state) 0 t.samples

let peak_punct_state t =
  List.fold_left (fun acc s -> max acc s.punct_state) 0 t.samples

let peak_index_state t =
  List.fold_left (fun acc s -> max acc s.index_state) 0 t.samples

let peak_state_bytes t =
  List.fold_left (fun acc s -> max acc s.state_bytes) 0 t.samples

let final t = match t.samples with [] -> None | s :: _ -> Some s

(* Least-squares slope of [field] against the tick over the second half of
   the run: ≈ 0 when bounded, > 0 when the series grows without bound.
   Degenerate windows answer 0 ({!Obs.Watchdog.slope}). *)
let slope_of field t =
  let all = samples t in
  let n = List.length all in
  Obs.Watchdog.slope
    (List.filteri (fun i _ -> i >= n / 2) all
    |> List.map (fun s -> (s.tick, field s)))

let growth_slope t = slope_of (fun s -> s.data_state) t
let index_growth_slope t = slope_of (fun s -> s.index_state) t

let pp_series ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf s ->
         Fmt.pf ppf
           "tick %6d  state %6d  index %6d  ~bytes %8d  puncts %5d  emitted \
            %6d"
           s.tick s.data_state s.index_state s.state_bytes s.punct_state
           s.emitted))
    (samples t)
