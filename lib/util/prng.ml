(* The SplitMix64 state lives unboxed in 8 bytes: reads and writes go
   through [Bytes.get_int64_le]/[set_int64_le], which the native
   compiler keeps in registers, so advancing the generator allocates no
   boxed [int64].  The hot draws ([int], [chance], [zipf]) stay in
   unboxed ints and floats from the state read to the returned value. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let bits64 t = next t

let split t = of_state (next t)

(* Non-negative 62-bit int from the top bits; OCaml ints are 63-bit. *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Rejection sampling to avoid modulo bias. *)
let rec int_draw t bound =
  let r = bits t in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then int_draw t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  int_draw t bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

(* 53 random bits into [0,1). *)
let[@inline] unit_float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (next t) 11))
  /. 9007199254740992.0

let float t bound = unit_float t *. bound

let bool t = Int64.compare (Int64.logand (next t) 1L) 0L <> 0

let[@inline] chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric: p not in (0,1]";
  if p >= 1.0 then 0
  else
    let u = unit_float t in
    (* Guard against log 0. *)
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (Float.floor (Float.log u /. Float.log (1.0 -. p)))

(* Rejection method of Jason Crease / Devroye for the Zipf distribution;
   no O(n) table, so it works for very large supports.  [h] is the
   integral of the x^-s envelope; the loop redraws until a candidate is
   accepted with probability proportional to k^-s over the envelope. *)
let[@inline] zipf_unit s = Float.abs (s -. 1.0) < 1e-9

let[@inline] zipf_h s x =
  if zipf_unit s then Float.log x
  else (Float.pow x (1.0 -. s) -. 1.0) /. (1.0 -. s)

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf: n must be positive";
  if n = 1 then 0
  else begin
    let nf = float_of_int n in
    let hmax = zipf_h s (nf +. 0.5) in
    let hmin = zipf_h s 0.5 in
    let drawn = ref (-1) in
    while !drawn < 0 do
      let u = hmin +. (unit_float t *. (hmax -. hmin)) in
      let x =
        if zipf_unit s then Float.exp u
        else Float.pow (1.0 +. ((1.0 -. s) *. u)) (1.0 /. (1.0 -. s))
      in
      let k = Float.max 1.0 (Float.min nf (Float.round x)) in
      let ratio = Float.pow (k /. x) (-.s) in
      let ratio = if Float.is_nan ratio then 1.0 else Float.min 1.0 ratio in
      if chance t ratio then drawn := int_of_float k - 1
    done;
    !drawn
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
