(* The benchmark's own arithmetic: order statistics and means over host
   timings and simulated ratios.  Pure functions, checked by
   [Selftest]. *)

let sorted a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Arith.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The tail rule: the highest percentile (in tenths, at most 99.9) whose
   nearest-rank sample still has at least ten samples above it.  With
   fewer than twenty samples that percentile falls below the median, so
   the median is reported instead.  Integer arithmetic keeps the rank
   exact (0.9 *. 100. is not 90.). *)
let tail a =
  let beyond = 10 in
  let n = Array.length a in
  if n = 0 then invalid_arg "Arith.tail: no samples";
  let tenths = min 999 (1000 * (n - beyond) / n) in
  if n < 2 * beyond then (50.0, median a)
  else
    let rank = ((tenths * n) + 999) / 1000 in
    (float_of_int tenths /. 10.0, (sorted a).(rank - 1))

let mean = function
  | [] -> invalid_arg "Arith.mean: no samples"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  if List.exists (fun x -> not (x > 0.0)) xs then
    invalid_arg "Arith.geomean: non-positive sample";
  exp (mean (List.map log xs))
