(* The unit and direction of every metric the benchmark prints.  run.py
   checks each printed metric against BENCHMARK.json. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("events_per_s", "events/s", Higher);
    ("op_p50_ms", "ms", Lower);
    ("op_tail_ms", "ms", Lower);
    ("alloc_words_per_event", "words/event", Lower);
    ("peak_rss_mb", "MB", Lower);
    ("sim_hybrid_speedup", "x", Higher);
    ("sim_online_speedup", "x", Higher);
    ("sim_ref_error_pp", "pp", Lower);
    ("sim_p99_mcyc", "Mcycles", Lower);
    ("sim_slo_miss_frac", "fraction", Lower);
    ("sim_fleet_makespan_gcyc", "Gcycles", Lower);
  ]

(* Per-layer units and directions follow from the name's last
   component. *)
let suffixes =
  [
    ("ns_per_event", "ns/event", Lower);
    ("words_per_event", "words/event", Lower);
    ("iter_events_per_s", "events/s", Higher);
    ("fault_handling_frac", "fraction", Lower);
    ("fault_frac", "fraction", Lower);
    ("evictions_per_kevent", "1/kevent", Lower);
    ("issued_per_kevent", "1/kevent", Lower);
    ("useful_ratio", "fraction", Higher);
    ("aborted_ratio", "fraction", Lower);
    ("sip_checks_per_kevent", "1/kevent", Lower);
    ("mode_switches", "count", Lower);
    ("labelled_sites", "count", Higher);
    ("check_s", "s", Lower);
    ("render_s", "s", Lower);
    ("mcyc", "Mcycles", Lower);
    ("slo_miss_frac", "fraction", Lower);
    ("cross_evictions", "count", Lower);
    ("channel_contentions", "count", Lower);
    ("channel_wait_frac", "fraction", Lower);
    ("makespan_gcyc", "Gcycles", Lower);
    ("collections", "1/Mevent", Lower);
    ("overhead_frac", "fraction", Lower);
  ]

let ends_with ~suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

let layer_unit name =
  match List.find_opt (fun (s, _, _) -> ends_with ~suffix:s name) suffixes with
  | Some (_, u, b) -> (u, b)
  | None -> invalid_arg ("Catalog.layer_unit: no unit for " ^ name)
