(* Host-speed calibration.

   The host this benchmark runs on is shared: for seconds at a time the
   same op can take half as long again as it did a moment earlier, with
   process CPU time tracking wall time (the slowdown is in the core and
   its caches, not in scheduling).  Two fixed kernels, compiled into the
   benchmark and calling nothing in the simulator, are timed every
   [period_ns] between ops: one works inside a 64 KB table (core speed),
   one across an 8 MB table (cache and memory contention).  A sample is
   the geometric mean of the two kernel times; neither kernel alone
   tracks the simulator's own slowdowns as well as the pair.  A host
   time is scaled by [ref_ms / k].  For the set-up, k is the median of
   the samples taken during it.  For a timed op, k is the mean of the
   last sample before the op started and the first one after: the
   machine's speed changes within seconds, and over six seeds this
   local k halved the seed-to-seed spread of the loop's figures that a
   median over the whole loop left.  A host-time figure therefore reads
   "ms on a machine where a sample takes [ref_ms]".  A change to the
   simulator moves it exactly as it moves raw time; a change in the
   machine's speed mostly cancels.  Raw figures are printed beside the
   scaled ones. *)

let ref_ms = 1.25
let period_ns = 200_000_000

(* Random read-modify-write over an off-heap table (nothing for the GC
   to scan). *)
let kernel ~size ~iters =
  let table = Bigarray.(Array1.create int c_layout size) in
  Bigarray.Array1.fill table 0;
  fun () ->
    let x = ref 12345 and acc = ref 0 in
    for _ = 1 to iters do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let i = !x land (size - 1) in
      acc := !acc + Bigarray.Array1.unsafe_get table i;
      Bigarray.Array1.unsafe_set table i (!acc land 0xff)
    done;
    !acc

let core = kernel ~size:(1 lsl 13) ~iters:400_000
let memory = kernel ~size:(1 lsl 20) ~iters:200_000

(* The first pass refills a table into cache after whatever ran before;
   only the second is timed. *)
let time_ms k =
  ignore (Sys.opaque_identity (k ()));
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (k ()));
  float_of_int (Span.now_ns () - t0) /. 1e6

(* (time taken, k), newest first. *)
let samples : (int * float) list ref = ref []
let last_ns = ref (-period_ns)
let spent_ns = ref 0

(* Take a sample when the last one is older than [period_ns].  Samples
   are always taken right after some simulator work, so each sees the
   same cache history. *)
let tick () =
  let t0 = Span.now_ns () in
  if t0 - !last_ns >= period_ns then begin
    samples := (t0, sqrt (time_ms core *. time_ms memory)) :: !samples;
    last_ns := Span.now_ns ();
    spent_ns := !spent_ns + (!last_ns - t0)
  end

(* A phase of the run: its raw host time is scaled by the median of the
   samples taken during it. *)
type phase = { n0 : int; t0 : int; k0 : int }

let start () =
  { n0 = List.length !samples; t0 = Span.now_ns (); k0 = !spent_ns }

(* Wall-clock ns since [start] that the kernels did not use. *)
let raw_ns p = Span.now_ns () - p.t0 - (!spent_ns - p.k0)

let factor p =
  tick ();
  let n = List.length !samples - p.n0 in
  let during = List.filteri (fun i _ -> i < max n 1) !samples in
  ref_ms /. Arith.median (Array.of_list (List.map snd during))

(* The factor for an op that started at [t]. *)
let local_factor t =
  let before = List.find_opt (fun (ts, _) -> ts <= t) !samples in
  (* Newest first: the last sample after [t] seen is the first taken. *)
  let after =
    List.fold_left (fun acc (ts, k) -> if ts > t then Some k else acc) None !samples
  in
  match (before, after) with
  | Some (_, a), Some b -> ref_ms /. ((a +. b) /. 2.0)
  | Some (_, k), None | None, Some k -> ref_ms /. k
  | None, None -> invalid_arg "Calib.local_factor: no samples"
