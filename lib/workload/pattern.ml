module Prng = Repro_util.Prng

type t =
  | Sequential of {
      site : int;
      base : int;
      pages : int;
      events_per_page : int;
      compute : int;
      jitter : float;
    }
  | Sequential_desc of {
      site : int;
      base : int;
      pages : int;
      events_per_page : int;
      compute : int;
      jitter : float;
    }
  | Strided of {
      site : int;
      base : int;
      pages : int;
      stride : int;
      events_per_page : int;
      compute : int;
      jitter : float;
    }
  | Multi_stream of {
      site : int;
      streams : (int * int) list;
      events_per_page : int;
      compute : int;
      jitter : float;
    }
  | Uniform_random of {
      site : int;
      base : int;
      pages : int;
      events : int;
      compute : int;
      jitter : float;
    }
  | Zipf of {
      site : int;
      base : int;
      pages : int;
      events : int;
      s : float;
      compute : int;
      jitter : float;
    }
  | Pointer_chase of {
      site : int;
      base : int;
      pages : int;
      events : int;
      locality : float;
      compute : int;
      jitter : float;
    }
  | Bursty of {
      site : int;
      base : int;
      pages : int;
      events : int;
      run_min : int;
      run_max : int;
      events_per_page : int;
      compute : int;
      jitter : float;
    }
  | Mixed_site of {
      site : int;
      hot_base : int;
      hot_pages : int;
      cold_base : int;
      cold_pages : int;
      events : int;
      irregular_ratio : float;
      compute : int;
      jitter : float;
    }
  | Of_events of Access.t list
  | Seq_list of t list
  | Weighted_interleave of (int * t) list
  | Take of int * t
  | On_thread of int * t

type slot = {
  mutable site : int;
  mutable vpage : int;
  mutable compute : int;
  mutable thread : int;
}

let slot () = { site = 0; vpage = 0; compute = 0; thread = 0 }

(* ------------------------------------------------------------------ *)
(* Leaves                                                              *)
(* ------------------------------------------------------------------ *)

(* Half-width of a leaf's uniform compute jitter; 0 draws nothing. *)
let spread ~compute ~jitter =
  if jitter <= 0.0 || compute = 0 then 0
  else int_of_float (float_of_int compute *. jitter)

(* Write one event into the slot: the jittered compute is drawn after
   the page, and both are checked as [Access.make] checks them. *)
let[@inline] emit prng (slot : slot) ~site ~vpage ~compute ~spread =
  let compute =
    if spread = 0 then compute
    else max 0 (Prng.int_in prng (compute - spread) (compute + spread))
  in
  if vpage < 0 then invalid_arg "Access.make: negative page";
  if compute < 0 then invalid_arg "Access.make: negative compute";
  slot.site <- site;
  slot.vpage <- vpage;
  slot.compute <- compute;
  slot.thread <- 0

let sequential ~site ~base ~pages ~events_per_page ~compute ~jitter =
  if pages < 0 || events_per_page <= 0 then
    invalid_arg "Pattern.sequential: bad sizes";
  Sequential { site; base; pages; events_per_page; compute; jitter }

let sequential_desc ~site ~base ~pages ~events_per_page ~compute ~jitter =
  if pages < 0 || events_per_page <= 0 then
    invalid_arg "Pattern.sequential_desc: bad sizes";
  Sequential_desc { site; base; pages; events_per_page; compute; jitter }

let strided ~site ~base ~pages ~stride ~events_per_page ~compute ~jitter =
  if pages < 0 || stride <= 0 || events_per_page <= 0 then
    invalid_arg "Pattern.strided: bad sizes";
  Strided { site; base; pages; stride; events_per_page; compute; jitter }

let multi_stream ~site ~streams ~events_per_page ~compute ~jitter =
  if streams = [] then invalid_arg "Pattern.multi_stream: no streams";
  if events_per_page <= 0 then invalid_arg "Pattern.multi_stream: bad events_per_page";
  Multi_stream { site; streams; events_per_page; compute; jitter }

let uniform_random ~site ~base ~pages ~events ~compute ~jitter =
  if pages <= 0 || events < 0 then invalid_arg "Pattern.uniform_random: bad sizes";
  Uniform_random { site; base; pages; events; compute; jitter }

let zipf ~site ~base ~pages ~events ~s ~compute ~jitter =
  if pages <= 0 || events < 0 then invalid_arg "Pattern.zipf: bad sizes";
  Zipf { site; base; pages; events; s; compute; jitter }

let pointer_chase ~site ~base ~pages ~events ~locality ~compute ~jitter =
  if pages <= 0 || events < 0 then invalid_arg "Pattern.pointer_chase: bad sizes";
  Pointer_chase { site; base; pages; events; locality; compute; jitter }

let bursty ~site ~base ~pages ~events ~run_min ~run_max ~events_per_page ~compute
    ~jitter =
  if pages <= 0 || events < 0 then invalid_arg "Pattern.bursty: bad sizes";
  if run_min <= 0 || run_max < run_min then invalid_arg "Pattern.bursty: bad runs";
  if events_per_page <= 0 then invalid_arg "Pattern.bursty: bad events_per_page";
  Bursty
    { site; base; pages; events; run_min; run_max; events_per_page; compute; jitter }

let mixed_site ~site ~hot_base ~hot_pages ~cold_base ~cold_pages ~events
    ~irregular_ratio ~compute ~jitter =
  if hot_pages <= 0 || cold_pages <= 0 || events < 0 then
    invalid_arg "Pattern.mixed_site: bad sizes";
  Mixed_site
    {
      site;
      hot_base;
      hot_pages;
      cold_base;
      cold_pages;
      events;
      irregular_ratio;
      compute;
      jitter;
    }

let of_events events = Of_events events

let empty = Seq_list []

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

let seq_list ts = Seq_list ts

let weighted_interleave weighted =
  if List.exists (fun (w, _) -> w <= 0) weighted then
    invalid_arg "Pattern.weighted_interleave: weight must be positive";
  if weighted = [] then empty else Weighted_interleave weighted

let interleave ts = weighted_interleave (List.map (fun t -> (1, t)) ts)

let repeat n t =
  if n < 0 then invalid_arg "Pattern.repeat: negative count";
  seq_list (List.init n (fun _ -> t))

let take n t =
  if n < 0 then invalid_arg "Pattern.take: negative count";
  Take (n, t)

let on_thread thread t =
  if thread < 0 then invalid_arg "Pattern.on_thread: negative thread";
  On_thread (thread, t)

let parallel threads =
  interleave (List.map (fun (thread, t) -> on_thread thread t) threads)

(* ------------------------------------------------------------------ *)
(* Cursors                                                             *)
(* ------------------------------------------------------------------ *)

(* The weighted pick: a Fenwick tree over the live children's weights
   (an exhausted child's weight drops to 0).  [find target] is the
   first child whose cumulative live weight exceeds [target] — the
   child a left-to-right scan would pick — in O(log k). *)
let weighted_cursor prng (children : (slot -> bool) array) weights =
  let k = Array.length children in
  let tree = Array.make (k + 1) 0 in
  Array.iteri (fun i w -> tree.(i + 1) <- w) weights;
  for i = 1 to k do
    let j = i + (i land -i) in
    if j <= k then tree.(j) <- tree.(j) + tree.(i)
  done;
  let total = ref (Array.fold_left ( + ) 0 weights) in
  let top = ref 1 in
  while 2 * !top <= k do
    top := 2 * !top
  done;
  let top = !top in
  let find target =
    let pos = ref 0 and rest = ref target and step = ref top in
    while !step > 0 do
      let j = !pos + !step in
      if j <= k && tree.(j) <= !rest then begin
        pos := j;
        rest := !rest - tree.(j)
      end;
      step := !step lsr 1
    done;
    !pos
  in
  let remove i =
    let w = weights.(i) in
    let j = ref (i + 1) in
    while !j <= k do
      tree.(!j) <- tree.(!j) - w;
      j := !j + (!j land - !j)
    done;
    total := !total - w
  in
  fun slot ->
    let produced = ref false in
    while (not !produced) && !total > 0 do
      let i = find (Prng.int prng !total) in
      if children.(i) slot then produced := true else remove i
    done;
    !produced

let rec instantiate t prng : slot -> bool =
  match t with
  | Sequential { site; base; pages; events_per_page; compute; jitter } ->
    let spread = spread ~compute ~jitter in
    let p = ref 0 and k = ref 0 in
    fun slot ->
      !p < pages
      && begin
           emit prng slot ~site ~vpage:(base + !p) ~compute ~spread;
           if !k + 1 >= events_per_page then begin
             incr p;
             k := 0
           end
           else incr k;
           true
         end
  | Sequential_desc { site; base; pages; events_per_page; compute; jitter } ->
    let spread = spread ~compute ~jitter in
    let p = ref (pages - 1) and k = ref 0 in
    fun slot ->
      !p >= 0
      && begin
           emit prng slot ~site ~vpage:(base + !p) ~compute ~spread;
           if !k + 1 >= events_per_page then begin
             decr p;
             k := 0
           end
           else incr k;
           true
         end
  | Strided { site; base; pages; stride; events_per_page; compute; jitter } ->
    (* Visit base+start, base+start+stride, ... for start = 0..stride-1:
       every page exactly once, consecutive accesses [stride] apart. *)
    let spread = spread ~compute ~jitter in
    let start = ref 0 and p = ref 0 and k = ref 0 in
    fun slot ->
      !start < stride
      && begin
           emit prng slot ~site ~vpage:(base + !p) ~compute ~spread;
           if !k + 1 < events_per_page then incr k
           else begin
             if !p + stride < pages then p := !p + stride
             else begin
               incr start;
               p := !start
             end;
             k := 0
           end;
           (* Skip empty sub-sweeps at the tail. *)
           while !start < stride && !p >= pages do
             incr start;
             p := !start;
             k := 0
           done;
           true
         end
  | Multi_stream { site; streams; events_per_page; compute; jitter } ->
    let spread = spread ~compute ~jitter in
    let n = List.length streams in
    let pos = Array.of_list (List.map fst streams) in
    let limit = Array.of_list (List.map (fun (base, pages) -> base + pages) streams) in
    let k = Array.make n 0 in
    let alive = ref (List.length (List.filter (fun (_, pages) -> pages > 0) streams)) in
    fun slot ->
      !alive > 0
      && begin
           (* Picking an exhausted stream redraws. *)
           let i = ref (Prng.int prng n) in
           while pos.(!i) >= limit.(!i) do
             i := Prng.int prng n
           done;
           let i = !i in
           emit prng slot ~site ~vpage:pos.(i) ~compute ~spread;
           if k.(i) + 1 >= events_per_page then begin
             pos.(i) <- pos.(i) + 1;
             k.(i) <- 0;
             if pos.(i) >= limit.(i) then decr alive
           end
           else k.(i) <- k.(i) + 1;
           true
         end
  | Uniform_random { site; base; pages; events; compute; jitter } ->
    let spread = spread ~compute ~jitter in
    let n = ref 0 in
    fun slot ->
      !n < events
      && begin
           let vpage = base + Prng.int prng pages in
           emit prng slot ~site ~vpage ~compute ~spread;
           incr n;
           true
         end
  | Zipf { site; base; pages; events; s; compute; jitter } ->
    let spread = spread ~compute ~jitter in
    let n = ref 0 in
    fun slot ->
      !n < events
      && begin
           let vpage = base + Prng.zipf prng ~n:pages ~s in
           emit prng slot ~site ~vpage ~compute ~spread;
           incr n;
           true
         end
  | Pointer_chase { site; base; pages; events; locality; compute; jitter } ->
    let spread = spread ~compute ~jitter in
    let current = ref (Prng.int prng pages) and n = ref 0 in
    fun slot ->
      !n < events
      && begin
           let vpage =
             if Prng.chance prng locality then begin
               let p = !current + Prng.int_in prng (-2) 2 in
               if p < 0 then 0 else if p >= pages then pages - 1 else p
             end
             else Prng.int prng pages
           in
           emit prng slot ~site ~vpage:(base + vpage) ~compute ~spread;
           current := vpage;
           incr n;
           true
         end
  | Bursty
      { site; base; pages; events; run_min; run_max; events_per_page; compute; jitter }
    ->
    let spread = spread ~compute ~jitter in
    let start = ref 0 and run = ref 0 in
    let fresh_run () =
      run := Prng.int_in prng run_min run_max;
      start := Prng.int prng (max 1 (pages - !run))
    in
    fresh_run ();
    let off = ref 0 and k = ref 0 and n = ref 0 in
    fun slot ->
      !n < events
      && begin
           emit prng slot ~site ~vpage:(base + !start + !off) ~compute ~spread;
           if !k + 1 < events_per_page then incr k
           else begin
             k := 0;
             if !off + 1 < !run then incr off
             else begin
               off := 0;
               fresh_run ()
             end
           end;
           incr n;
           true
         end
  | Mixed_site
      {
        site;
        hot_base;
        hot_pages;
        cold_base;
        cold_pages;
        events;
        irregular_ratio;
        compute;
        jitter;
      } ->
    let spread = spread ~compute ~jitter in
    let n = ref 0 in
    fun slot ->
      !n < events
      && begin
           let vpage =
             if Prng.chance prng irregular_ratio then cold_base + Prng.int prng cold_pages
             else hot_base + Prng.zipf prng ~n:hot_pages ~s:1.1
           in
           emit prng slot ~site ~vpage ~compute ~spread;
           incr n;
           true
         end
  | Of_events events -> (
    let rest = ref events in
    fun slot ->
      match !rest with
      | [] -> false
      | (a : Access.t) :: tl ->
        rest := tl;
        slot.site <- a.site;
        slot.vpage <- a.vpage;
        slot.compute <- a.compute;
        slot.thread <- a.thread;
        true)
  | Seq_list [] -> fun _ -> false
  | Seq_list (first :: later) ->
    let current = ref (instantiate first prng) and later = ref later in
    let rec next slot =
      !current slot
      ||
      match !later with
      | [] -> false
      | t :: rest ->
        later := rest;
        current := instantiate t prng;
        next slot
    in
    next
  | Weighted_interleave weighted ->
    let children = Array.of_list (List.map (fun (_, t) -> instantiate t prng) weighted) in
    weighted_cursor prng children (Array.of_list (List.map fst weighted))
  | Take (n, t) ->
    let next = instantiate t prng and left = ref n in
    fun slot ->
      !left > 0
      && next slot
      && begin
           decr left;
           true
         end
  | On_thread (thread, t) ->
    let next = instantiate t prng in
    fun slot ->
      next slot
      && begin
           slot.thread <- thread;
           true
         end

let run t prng =
  let next = instantiate t prng and s = slot () in
  let rec pull () =
    if next s then
      Seq.Cons
        ( { Access.site = s.site; vpage = s.vpage; compute = s.compute; thread = s.thread },
          pull )
    else Seq.Nil
  in
  pull
