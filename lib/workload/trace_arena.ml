(* Compile a trace once into packed parallel buffers and replay it from
   there.

   [Trace.events] re-runs the PRNG-driven pattern closure chain and
   allocates one record per access, every time anyone looks at the
   stream — and the experiment matrix looks at the same stream once per
   scheme cell.  The arena pays that cost once: the stream is
   materialised into four Bigarray int columns (site, vpage, compute,
   thread), replays become tight index loops with no per-access
   allocation, and compiled arenas are memoised process-wide and
   (optionally) persisted to a checksummed on-disk cache so forked
   workers and repeated CLI invocations decode instead of regenerating.

   Identity.  A pattern is a closure, so it has no hashable structure;
   the cache key is the trace's header (name, seed, elrange, footprint,
   sites) plus a fingerprint of the first [fingerprint_events] accesses
   the pattern actually generates.  Two traces that agree on all of that
   and diverge only deeper into the stream would collide — the shipped
   models never do (their streams are PRNG-seeded, so any difference
   shows immediately), and the cost of the fingerprint is a bounded
   prefix replay, not a full one. *)

module Codec = Trace_codec

type t = { trace : Trace.t; packed : Codec.packed }

let trace a = a.trace
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

let fold a ~init ~f =
  let acc = ref init in
  iter a ~f:(fun ~site ~vpage ~compute ~thread ->
      acc := f !acc ~site ~vpage ~compute ~thread);
  !acc

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
  let h = ref Codec.(mix (mix 0 0x5eed) (String.length trace.Trace.name)) in
  let i = ref 0 in
  (try
     Seq.iter
       (fun (a : Access.t) ->
         if !i >= fingerprint_events then raise Exit;
         incr i;
         h := Codec.mix (Codec.mix (Codec.mix (Codec.mix !h a.site) a.vpage) a.compute) a.thread)
       (Trace.events trace)
   with Exit -> ());
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

(* Materialise [events] into packed columns under [trace]'s header. *)
let build trace fp events =
  let cap = ref 4096 in
  let n = ref 0 in
  let site = ref (Array.make !cap 0) in
  let vpage = ref (Array.make !cap 0) in
  let compute = ref (Array.make !cap 0) in
  let thread = ref (Array.make !cap 0) in
  let grow () =
    let cap' = 2 * !cap in
    let extend a = Array.append !a (Array.make !cap 0) in
    site := extend site;
    vpage := extend vpage;
    compute := extend compute;
    thread := extend thread;
    cap := cap'
  in
  let distinct = Hashtbl.create 1024 in
  Seq.iter
    (fun (a : Access.t) ->
      if !n = !cap then grow ();
      let i = !n in
      !site.(i) <- a.site;
      !vpage.(i) <- a.vpage;
      !compute.(i) <- a.compute;
      !thread.(i) <- a.thread;
      Hashtbl.replace distinct a.vpage ();
      n := i + 1)
    events;
  let column src =
    let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout !n in
    for i = 0 to !n - 1 do
      Bigarray.Array1.unsafe_set b i (Array.unsafe_get src i)
    done;
    b
  in
  {
    Codec.name = trace.Trace.name;
    seed = trace.Trace.seed;
    elrange_pages = trace.Trace.elrange_pages;
    footprint_pages = trace.Trace.footprint_pages;
    fingerprint = fp;
    distinct_pages = Hashtbl.length distinct;
    site = column !site;
    vpage = column !vpage;
    compute = column !compute;
    thread = column !thread;
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
          let p = build trace fp (Trace.events trace) in
          store_cached k p;
          p
      in
      let a = { trace; packed } in
      Hashtbl.replace memo k a;
      a
  in
  Trace.note_stats trace ~length:(length a) ~distinct_pages:(distinct_pages a);
  a

(* A derived stream has no cache identity: the fingerprint slot stays 0
   because the arena never reaches the memo or the disk. *)
let of_seq trace events = { trace; packed = build trace 0 events }

let cache_path trace =
  match cache_dir () with
  | None -> None
  | Some dir ->
    let fp = fingerprint trace in
    Some (cache_file dir (key trace fp))
