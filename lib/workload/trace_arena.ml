(* Compile a trace once into packed parallel buffers and replay it from
   there.

   Generating the stream means running the pattern's cursor, which
   draws from the PRNG for every access — and the experiment matrix
   looks at the same stream once per scheme cell.  The arena pays that
   cost once: the packer pulls the cursor straight into four Bigarray
   int columns (site, vpage, compute, thread), replays become tight
   index loops with no per-access allocation, and compiled arenas are
   memoised process-wide and (optionally) persisted to a checksummed
   on-disk cache so forked workers and repeated CLI invocations decode
   instead of regenerating.

   Identity.  A pattern's leaves may carry a whole recorded event list,
   so its tree is not a cheap key; the cache key is the trace's header
   (name, seed, elrange, footprint, sites) plus a fingerprint of the
   first [fingerprint_events] accesses the pattern actually generates.
   Two traces that agree on all of that and diverge only deeper into
   the stream would collide — the shipped models never do (their
   streams are PRNG-seeded, so any difference shows immediately), and
   the cost of the fingerprint is a bounded prefix pull, not a full
   replay. *)

module Codec = Trace_codec

type t = { packed : Codec.packed }

let length a = Codec.length a.packed
let distinct_pages a = a.packed.Codec.distinct_pages

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let site a i = Bigarray.Array1.get a.packed.Codec.site i
let vpage a i = Bigarray.Array1.get a.packed.Codec.vpage i
let compute a i = Bigarray.Array1.get a.packed.Codec.compute i
let thread a i = Bigarray.Array1.get a.packed.Codec.thread i

let iter a ~f =
  let p = a.packed in
  let s = p.Codec.site and v = p.Codec.vpage in
  let c = p.Codec.compute and th = p.Codec.thread in
  for i = 0 to length a - 1 do
    f
      ~site:(Bigarray.Array1.unsafe_get s i)
      ~vpage:(Bigarray.Array1.unsafe_get v i)
      ~compute:(Bigarray.Array1.unsafe_get c i)
      ~thread:(Bigarray.Array1.unsafe_get th i)
  done

let get a i : Access.t =
  { site = site a i; vpage = vpage a i; compute = compute a i; thread = thread a i }

let to_seq a =
  let n = length a in
  let rec from i () = if i >= n then Seq.Nil else Seq.Cons (get a i, from (i + 1)) in
  from 0

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

let fingerprint_events = 128

let fingerprint trace =
  let next = Trace.cursor trace and slot = Pattern.slot () in
  let h = ref Codec.(mix (mix 0 0x5eed) (String.length trace.Trace.name)) in
  let i = ref 0 in
  while !i < fingerprint_events && next slot do
    incr i;
    h :=
      Codec.mix
        (Codec.mix (Codec.mix (Codec.mix !h slot.site) slot.vpage) slot.compute)
        slot.thread
  done;
  Codec.mix !h !i

let key trace fp =
  Printf.sprintf "v%d|%s|%d|%d|%d|%s|%d" Codec.version trace.Trace.name
    trace.Trace.seed trace.Trace.elrange_pages trace.Trace.footprint_pages
    (String.concat ";"
       (List.map
          (fun (id, label) -> Printf.sprintf "%d:%s" id label)
          trace.Trace.sites))
    fp

(* ------------------------------------------------------------------ *)
(* On-disk cache                                                       *)
(* ------------------------------------------------------------------ *)

let cache_env_var = "SGX_PRELOAD_ARENA_CACHE"

let cache_dir () =
  match Sys.getenv_opt cache_env_var with
  | None | Some "" -> None
  | Some dir -> Some dir

let cache_file dir k = Filename.concat dir (Digest.to_hex (Digest.string k) ^ ".arena")

let matches trace fp (p : Codec.packed) =
  (* The filename already digests the key, so this only guards against a
     digest collision or a hand-copied file: never replay someone else's
     stream. *)
  p.Codec.name = trace.Trace.name
  && p.Codec.seed = trace.Trace.seed
  && p.Codec.elrange_pages = trace.Trace.elrange_pages
  && p.Codec.footprint_pages = trace.Trace.footprint_pages
  && p.Codec.fingerprint = fp

let load_cached trace fp k =
  match cache_dir () with
  | None -> None
  | Some dir -> (
    match Codec.read_file ~path:(cache_file dir k) with
    | Ok p when matches trace fp p -> Some p
    | Ok _ | Error _ ->
      (* Missing, truncated, corrupt, stale version, wrong identity:
         every failure mode is a cache miss, never a run failure. *)
      None)

let store_cached k p =
  match cache_dir () with
  | None -> ()
  | Some dir -> (
    try
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Codec.write_file ~path:(cache_file dir k) p
    with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compilations_counter = ref 0
let compilations () = !compilations_counter

let column n : Codec.buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* Pull [next] to exhaustion straight into packed columns under
   [trace]'s header.  The columns double as they fill and are trimmed
   to the event count at the end, so the arena never holds growth
   slack; distinct pages are counted on the way through. *)
let pack trace fp next =
  let cap = ref 4096 and n = ref 0 in
  let site = ref (column !cap) and vpage = ref (column !cap) in
  let compute = ref (column !cap) and thread = ref (column !cap) in
  let resize c len =
    let b = column len in
    let keep = min len !cap in
    Bigarray.Array1.blit (Bigarray.Array1.sub !c 0 keep) (Bigarray.Array1.sub b 0 keep);
    c := b
  in
  let resize_all len =
    List.iter (fun c -> resize c len) [ site; vpage; compute; thread ];
    cap := len
  in
  let pages = Repro_util.Page_set.create () in
  let slot = Pattern.slot () in
  while next slot do
    let i = !n in
    if i = !cap then resize_all (2 * i);
    Bigarray.Array1.unsafe_set !site i slot.site;
    Bigarray.Array1.unsafe_set !vpage i slot.vpage;
    Bigarray.Array1.unsafe_set !compute i slot.compute;
    Bigarray.Array1.unsafe_set !thread i slot.thread;
    Repro_util.Page_set.add pages slot.vpage;
    n := i + 1
  done;
  if !n < !cap then resize_all !n;
  {
    Codec.name = trace.Trace.name;
    seed = trace.Trace.seed;
    elrange_pages = trace.Trace.elrange_pages;
    footprint_pages = trace.Trace.footprint_pages;
    fingerprint = fp;
    distinct_pages = Repro_util.Page_set.cardinal pages;
    site = !site;
    vpage = !vpage;
    compute = !compute;
    thread = !thread;
  }

let memo : (string, t) Hashtbl.t = Hashtbl.create 16
let clear_memo () = Hashtbl.reset memo

let compile trace =
  let fp = fingerprint trace in
  let k = key trace fp in
  let a =
    match Hashtbl.find_opt memo k with
    | Some a -> a
    | None ->
      let packed =
        match load_cached trace fp k with
        | Some p -> p
        | None ->
          incr compilations_counter;
          let p = pack trace fp (Trace.cursor trace) in
          store_cached k p;
          p
      in
      let a = { packed } in
      Hashtbl.replace memo k a;
      a
  in
  Trace.note_stats trace ~length:(length a) ~distinct_pages:(distinct_pages a);
  a

(* A derived stream has no cache identity: the fingerprint slot stays 0
   because the arena never reaches the memo or the disk. *)
let of_seq trace events =
  let rest = ref events in
  let next (slot : Pattern.slot) =
    match !rest () with
    | Seq.Nil -> false
    | Seq.Cons ((a : Access.t), tl) ->
      rest := tl;
      slot.site <- a.site;
      slot.vpage <- a.vpage;
      slot.compute <- a.compute;
      slot.thread <- a.thread;
      true
  in
  { packed = pack trace 0 next }

let cache_path trace =
  match cache_dir () with
  | None -> None
  | Some dir ->
    let fp = fingerprint trace in
    Some (cache_file dir (key trace fp))
