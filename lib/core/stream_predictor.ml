type stream = { mutable stpn : int; mutable dir : int; mutable pending : int list }

type reaction = Extend | Restart_within | New_stream

(* The stream list is a fixed-capacity MRU-first array rather than a
   linked LRU list: [on_fault] runs on every simulated page fault, and at
   list length 30 the generic list-based LRU spent its time rebuilding
   cons cells on every promote and walking the list twice (pending check,
   then sequential check).  The array form promotes with one [Array.blit]
   (no allocation) and matches both predicates in a single early-exit
   pass.  Order semantics are unchanged: index 0 is the MRU head, inserts
   evict the highest live index.  The SIP classifier feeds [on_fault]
   every proxy miss, so it allocates nothing: the reaction is a constant,
   the acted-on stream is the head, orphaned pending pages go to
   [aborted], and a new stream reuses a dead or replaced record. *)
type t = {
  streams : stream array; (* [0, count) live, MRU first; dead: no pending *)
  mutable count : int;
  mutable aborted : int list; (* pending pages the last fault orphaned *)
  load_length : int;
  list_length : int;
  detect_backward : bool;
}

let create ?(detect_backward = true) ~stream_list_length ~load_length () =
  if stream_list_length <= 0 then
    invalid_arg "Stream_predictor.create: stream_list_length must be positive";
  if load_length <= 0 then
    invalid_arg "Stream_predictor.create: load_length must be positive";
  {
    streams =
      Array.init stream_list_length (fun _ -> { stpn = min_int; dir = 0; pending = [] });
    count = 0;
    aborted = [];
    load_length;
    list_length = stream_list_length;
    detect_backward;
  }

(* Is [npn] a continuation of [s]?  In steady state the pages
   [stpn+1 .. stpn+LOADLENGTH] are preloaded and never fault, so the next
   fault of a live stream lands at [stpn + LOADLENGTH + 1]: anything in
   that window continues the stream.  (A fault {e inside} a window whose
   preloads are still pending is a skip, handled separately — the paper's
   page(5)-while-loading-page(3) abort example.)  Returns the direction
   that makes [npn] a continuation, 0 if none. *)
let fits ~window ~stpn npn dir =
  let delta = (npn - stpn) * dir in
  delta >= 1 && delta <= window

let sequential_dir t s npn =
  let window = t.load_length + 1 in
  let stpn = s.stpn in
  if s.dir <> 0 then if fits ~window ~stpn npn s.dir then s.dir else 0
  else if fits ~window ~stpn npn 1 then 1
  else if t.detect_backward && fits ~window ~stpn npn (-1) then -1
  else 0

let promote t i =
  if i > 0 then begin
    let s = t.streams.(i) in
    Array.blit t.streams 0 t.streams 1 i;
    t.streams.(0) <- s
  end

let on_fault t npn =
  (* One MRU-order pass.  The pending check has absolute priority over
     the sequential check — a pending match anywhere in the list beats a
     sequential match anywhere — so the pass can stop at the first
     pending match but must remember only the {e first} sequential match
     in case no pending match exists.  This reproduces exactly the
     two-traversal (pending find, then sequential find) semantics. *)
  let pending_i = ref (-1) in
  let seq_i = ref (-1) in
  let seq_dir = ref 0 in
  let i = ref 0 in
  while !pending_i < 0 && !i < t.count do
    let s = t.streams.(!i) in
    (* [memq], not [mem]: page numbers are immediate ints, so physical
       equality is exact and skips the polymorphic-compare call. *)
    if List.memq npn s.pending then pending_i := !i
    else if !seq_i < 0 then begin
      let dir = sequential_dir t s npn in
      if dir <> 0 then begin
        seq_i := !i;
        seq_dir := dir
      end
    end;
    incr i
  done;
  if !pending_i >= 0 then begin
    (* The fault landed on a page whose preload is still queued: the
       application skipped ahead of the loader. *)
    let s = t.streams.(!pending_i) in
    t.aborted <- s.pending;
    s.pending <- [];
    s.stpn <- npn;
    s.dir <- 0;
    promote t !pending_i;
    Restart_within
  end
  else if !seq_i >= 0 then begin
    let s = t.streams.(!seq_i) in
    t.aborted <- [];
    s.dir <- !seq_dir;
    s.stpn <- npn;
    promote t !seq_i;
    Extend
  end
  else begin
    (* The first dead record, or the LRU entry when the list is full. *)
    let i = min t.count (t.list_length - 1) in
    if i = t.count then t.count <- t.count + 1;
    let s = t.streams.(i) in
    t.aborted <- s.pending;
    s.stpn <- npn;
    s.dir <- 0;
    s.pending <- [];
    promote t i;
    New_stream
  end

let head t = t.streams.(0)
let aborted t = t.aborted

let rec predicted s i acc =
  if i = 0 then acc
  else
    let p = s.stpn + (s.dir * i) in
    predicted s (i - 1) (if p >= 0 then p :: acc else acc)

let predictions t = predicted (head t) t.load_length []

let near s ~load_length page =
  let delta = page - s.stpn in
  let d = if s.dir > 0 then delta else if s.dir < 0 then -delta else abs delta in
  d >= 1 && d <= load_length

let covers t page =
  let i = ref 0 in
  while !i < t.count && not (near t.streams.(!i) ~load_length:t.load_length page) do
    incr i
  done;
  !i < t.count

let set_pending s pages = s.pending <- pages

let streams t = List.init t.count (fun i -> t.streams.(i))

let reset t =
  t.count <- 0;
  t.aborted <- [];
  Array.iter (fun s -> s.pending <- []) t.streams
