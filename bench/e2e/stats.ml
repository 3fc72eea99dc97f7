(* Summary statistics over run samples. Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method),
   so a spread computed here equals the one a Python reader computes from
   the same samples. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [quartiles xs] = (q1, q2, q3). With a single sample every quartile is
   that sample. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let n = 4 and m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)

(* Interquartile range as a share of the median; 0 when the median is 0 and
   the samples do not spread. *)
let rel_iqr xs =
  let q1, q2, q3 = quartiles xs in
  let iqr = q3 -. q1 in
  if iqr = 0. then 0. else if q2 = 0. then Float.infinity else iqr /. Float.abs q2

(* [percentile p xs] — nearest rank: the smallest sample with at least
   [p] of the samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
