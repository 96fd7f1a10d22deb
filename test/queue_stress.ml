(* The queue-heavy stress trace: many threads, each advancing many
   concurrent sequential streams, with compute gaps too small to drain
   the load channel — so the pending-preload queue stays deep and every
   scheme faults, preloads, evicts and scans.  Kept out of the model
   registry on purpose: the registry feeds the benchmark's
   cold-characterise op list, so a new model would change the
   benchmark. *)

module Pattern = Workload.Pattern
module Trace = Workload.Trace

type settings = {
  label : string;
  events : int;
  epc_pages : int;
  threads : int;
  streams_per_thread : int;
  compute : int;  (** Mean compute cycles between accesses. *)
  seed : int;
}

let smoke =
  {
    label = "smoke";
    events = 50_000;
    epc_pages = 1024;
    threads = 4;
    streams_per_thread = 16;
    compute = 2_000;
    seed = 4242;
  }

(* Pages each stream sweeps so the whole trace covers [events] accesses
   with every access touching a fresh page (events_per_page = 1): the
   streams never revisit, so the predictor keeps every stream alive and
   the preload windows of threads * streams_per_thread streams compete
   for the channel simultaneously. *)
let stream_pages s = (s.events / (s.threads * s.streams_per_thread)) + 1

let footprint_pages s = s.threads * s.streams_per_thread * stream_pages s

let trace s =
  let pages = stream_pages s in
  let thread_pattern t =
    let streams =
      List.init s.streams_per_thread (fun i ->
          (((t * s.streams_per_thread) + i) * pages, pages))
    in
    Pattern.multi_stream ~site:t ~streams ~events_per_page:1 ~compute:s.compute
      ~jitter:0.1
  in
  let pattern =
    Pattern.take s.events
      (Pattern.parallel (List.init s.threads (fun t -> (t, thread_pattern t))))
  in
  Trace.make
    ~name:(Printf.sprintf "queue-stress-%s" s.label)
    ~elrange_pages:(footprint_pages s) ~footprint_pages:(footprint_pages s)
    ~seed:s.seed
    ~sites:(List.init s.threads (fun t -> (t, Printf.sprintf "thread%d" t)))
    pattern
