(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test    check the benchmark's own arithmetic

   One single-threaded process, no worker pool.  Set-up builds the ten
   matrix traces (ref inputs chosen by the seed) and their train-input
   SIP plans, three times from an empty arena memo; the timed loop then
   runs whole rounds of the workload's ops until the seconds are used.
   Every run reports every metric BENCHMARK.json declares: simulated
   cells the workload's own ops did not produce (for the sim_* metrics)
   run after the loop, untimed; the fixed service cell of
   {!Sim_metrics.reference_op} runs before set-up, untimed.  End-to-end
   host times are scaled for the machine's momentary speed ({!Calib});
   raw ones are printed too.

   --trace 0 prints the end-to-end metrics.  --trace 1 alternates each
   round untraced and traced, reports the gap as the tracing overhead,
   runs one round of every other workload traced so every layer is
   covered, prints self times per layer, writes the spans as JSON lines
   (--spans FILE) and prints the per-layer metrics (host times raw).
   Each metric line reads "name value unit (lower|higher is better)";
   the last line of standard output is always the JSON result. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--spans FILE] | --self-test";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  spans_out : string option;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and spans_out = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--spans" :: v :: rest -> spans_out := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t
    when List.mem w Workloads.names && s >= 0 && secs > 0.0 ->
    { workload = w; seed = s; seconds = secs; trace = t; spans_out = !spans_out }
  | _ -> usage ()

let elapsed_s t0 = float_of_int (Span.now_ns () - t0) /. 1e9

(* VmHWM: the process's peak resident set, which covers the off-heap
   Bigarray arenas and page tables that [Gc] does not count. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.0

(* ---------- set-up ---------- *)

let setup_reps = 3

(* Each repetition starts from an empty arena memo (the disk cache is
   off), so it generates and compiles every trace.  Returns the last
   repetition's inputs, each repetition's raw seconds, and the
   {!Calib} factor over all of them. *)
let setup ~seed ~reps =
  let phase = Calib.start () in
  let rec go k times =
    Workloads.Arena.clear_memo ();
    Gc.compact ();
    let rep = Calib.start () in
    let inputs = Workloads.build_inputs ~seed ~between:Calib.tick in
    let times = (float_of_int (Calib.raw_ns rep) /. 1e9) :: times in
    if k + 1 < reps then go (k + 1) times else (inputs, List.rev times)
  in
  let inputs, times = go 0 [] in
  (inputs, times, Calib.factor phase)

(* ---------- per-layer host metrics ---------- *)

let host_layers ~gc_minor ~gc_major ~overhead =
  let layers = Span.layers () in
  let get name =
    match List.assoc_opt name layers with
    | Some l -> l
    | None -> failwith ("no spans recorded for layer " ^ name)
  in
  let self_ns (l : Span.layer) = float_of_int l.self_ns in
  let self_words (l : Span.layer) = l.self_words in
  let per_event name f =
    let l = get name in
    f l /. float_of_int l.l_events
  in
  let mean_s name =
    let l = get name in
    float_of_int l.self_ns /. 1e9 /. float_of_int l.calls
  in
  let iter = get "workload.iter" in
  let profile = get "sip_profiler.profile" and plan = get "sip_profiler.plan" in
  [
    ("workload.compile_ns_per_event", per_event "workload.compile" self_ns);
    ("workload.compile_words_per_event", per_event "workload.compile" self_words);
    ( "workload.iter_events_per_s",
      float_of_int iter.l_events /. (float_of_int iter.self_ns /. 1e9) );
    ("trace_stats.analyse_ns_per_event", per_event "trace_stats.analyse" self_ns);
    ("trace_stats.mrc_ns_per_event", per_event "trace_stats.mrc" self_ns);
    ("trace_stats.mrc_words_per_event", per_event "trace_stats.mrc" self_words);
    ( "sip_profiler.profile_ns_per_event",
      float_of_int (profile.self_ns + plan.self_ns) /. float_of_int profile.l_events );
  ]
  @ List.concat_map
      (fun s ->
        [
          ("runner." ^ s ^ ".ns_per_event", per_event ("runner." ^ s) self_ns);
          ("runner." ^ s ^ ".words_per_event", per_event ("runner." ^ s) self_words);
        ])
      Workloads.schemes
  @ [
      ("service.ns_per_event", per_event "service.run" self_ns);
      ("service.words_per_event", per_event "service.run" self_words);
      ("service.check_s", mean_s "service.check");
      ("fleet.ns_per_event", per_event "fleet.run" self_ns);
      ("fleet.words_per_event", per_event "fleet.run" self_words);
      ("validate.check_s", mean_s "validate.check");
      ("report.render_s", mean_s "report.render");
      ("gc.minor_collections", gc_minor);
      ("gc.major_collections", gc_major);
      ("trace.overhead_frac", overhead);
    ]

(* ---------- output ---------- *)

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) Catalog.end_to_end with
  | Some (_, u, b) -> (u, b)
  | None -> Catalog.layer_unit name

let print_result (t : Loop.tally) metrics =
  List.iter
    (fun (name, v) ->
      let u, b = unit_of name in
      Printf.printf "%-48s %18.6g %-12s (%s is better)\n" name v u
        (Catalog.better_name b))
    metrics;
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then begin
        Printf.eprintf "metric %s is not a finite number\n" name;
        exit 1
      end)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v
             (fst (unit_of name)))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.failed = 0) t.attempted t.failed body

let print_self_times () =
  Printf.printf "%-28s %7s %11s %11s %8s %12s %10s %10s\n" "layer" "calls"
    "total_ms" "self_ms" "self_%" "events" "ns/event" "words/ev";
  let layers = Span.layers () in
  (* Self times partition the time the top-level spans cover. *)
  let top = List.fold_left (fun n (_, (l : Span.layer)) -> n + l.self_ns) 0 layers in
  List.iter
    (fun (name, (l : Span.layer)) ->
      let per x = if l.l_events > 0 then x /. float_of_int l.l_events else nan in
      Printf.printf "%-28s %7d %11.1f %11.1f %8.2f %12d %10.1f %10.2f\n" name
        l.calls
        (float_of_int l.total_ns /. 1e6)
        (float_of_int l.self_ns /. 1e6)
        (100.0 *. float_of_int l.self_ns /. float_of_int (max 1 top))
        l.l_events
        (per (float_of_int l.self_ns))
        (per l.self_words))
    layers

(* ---------- the two modes ---------- *)

let median_of l = Arith.median (Array.of_list l)

(* Host-time figures are raw times scaled by {!Calib}: the set-up by its
   phase factor, each timed op by its local factor.  The raw ones are
   printed beside them. *)
let e2e_host (t : Loop.tally) ~setup_times ~setup_factor ~loop_words =
  let raw = Array.of_list (List.map snd t.times_ms) in
  let scaled =
    Array.of_list
      (List.map (fun (t0, ms) -> ms *. Calib.local_factor t0) t.times_ms)
  in
  let pct, raw_tail = Arith.tail raw in
  let sum a = Array.fold_left ( +. ) 0.0 a /. 1e3 in
  let raw_s = sum raw in
  let events = float_of_int t.events in
  Printf.printf
    "ops %d timed, ops_failed %d; op_tail_ms is p%.1f of the %d timed ops\n"
    (Array.length raw) t.failed pct (Array.length raw);
  Printf.printf
    "raw host time: setup_s %.4f, events_per_s %.6g, op_p50_ms %.4f, \
     op_tail_ms %.4f\n"
    (median_of setup_times) (events /. raw_s) (Arith.median raw) raw_tail;
  Printf.printf
    "calibration factor: set-up %.4f, timed loop (time-weighted) %.4f\n"
    setup_factor (sum scaled /. raw_s);
  [
    ("setup_s", median_of setup_times *. setup_factor);
    ("events_per_s", events /. sum scaled);
    ("op_p50_ms", Arith.median scaled);
    ("op_tail_ms", snd (Arith.tail scaled));
    ("alloc_words_per_event", loop_words /. events);
  ]

(* The fixed service cell runs before set-up, untimed: it builds its
   input afresh whatever the seed, and set-up empties the arena memo and
   compacts the heap after it, so it moves neither setup_s nor
   peak_rss_mb. *)
let run_reference st t =
  ignore (Loop.run t ~timed:false ~digest:true (Sim_metrics.reference_op st))

let run_untraced a =
  let st = Workloads.store () and t = Loop.tally () in
  run_reference st t;
  let inputs, setup_times, setup_factor =
    setup ~seed:a.seed ~reps:setup_reps
  in
  Printf.printf "set-up raw (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
  let w0 = Span.allocated_words () and t0 = Span.now_ns () in
  let r = ref 0 in
  while !r = 0 || elapsed_s t0 < a.seconds do
    List.iter
      (fun op -> ignore (Loop.run t ~timed:true ~digest:(!r = 0) op))
      (Workloads.round ~workload:a.workload ~seed:a.seed st inputs !r);
    incr r
  done;
  let loop_words = Span.allocated_words () -. w0 in
  Printf.printf "rounds %d in %.3f s\n" !r (elapsed_s t0);
  List.iter
    (fun op -> ignore (Loop.run t ~timed:false ~digest:true op))
    (Sim_metrics.missing_ops st inputs);
  let host = e2e_host t ~setup_times ~setup_factor ~loop_words in
  let sim =
    match Sim_metrics.end_to_end st with
    | m -> m
    | exception e when t.failed > 0 ->
      (* A failed cell leaves nothing to compute from; [correct] is
         already false. *)
      Printf.printf "no simulated metrics: %s\n" (Printexc.to_string e);
      List.filter_map
        (fun (n, _, _) ->
          if String.length n > 4 && String.sub n 0 4 = "sim_" then Some (n, 0.0)
          else None)
        Catalog.end_to_end
  in
  Printf.printf "sim_digest %016x\n" t.digest;
  Printf.printf
    "sim_ref_error_pp compares %d cells with the paper's hardware figures \
     (128 MB EPC; the model runs 2048 pages on held-back ref inputs); the \
     online cells and every hybrid cell but mixed-blood have no hardware \
     reference, so sim_hybrid_speedup and sim_online_speedup are \
     unvalidated.\n"
    (List.length Paper_ref.cells);
  print_result t (host @ [ ("peak_rss_mb", peak_rss_mb ()) ] @ sim)

(* One round of each other workload, so every layer has spans: the ops
   that need the matrix traces compiled, and the cold ops.  Two cold ops
   cover trace_stats without a whole registry pass. *)
let other_rounds ~workload ~seed st inputs =
  let round w = Workloads.round ~workload:w ~seed st inputs 0 in
  let others = List.filter (fun w -> w <> workload) Workloads.names in
  ( List.concat_map round (List.filter (fun w -> w <> "cold-characterise") others),
    if List.mem "cold-characterise" others then
      List.filteri (fun i _ -> i < 2) (round "cold-characterise")
    else [] )

let run_traced a =
  let st = Workloads.store () and t = Loop.tally () in
  run_reference st t;
  Span.recording := true;
  let inputs, _, _ =
    Span.with_ "setup" (fun () -> setup ~seed:a.seed ~reps:1)
  in
  (* Arena iteration with a no-op callback: the ceiling for replay. *)
  List.iter
    (fun (i : Workloads.input) ->
      let arena = Workloads.Arena.compile i.trace in
      Span.with_ ~events:(fun () -> Workloads.Arena.length arena) "workload.iter"
        (fun () -> Workloads.Arena.iter arena ~f:(fun ~site:_ ~vpage:_ ~compute:_ ~thread:_ -> ())))
    inputs;
  let untraced_ms = ref 0.0 and traced_ms = ref 0.0 in
  let minor = ref 0 and major = ref 0 and untraced_events = ref 0 in
  let pass ~traced ~digest ops =
    Span.recording := traced;
    List.fold_left
      (fun acc op -> acc +. Loop.run t ~timed:true ~digest op)
      0.0 ops
  in
  let t0 = Span.now_ns () in
  let r = ref 0 in
  while !r = 0 || elapsed_s t0 < a.seconds do
    let ops = Workloads.round ~workload:a.workload ~seed:a.seed st inputs !r in
    (* Collections are counted in the untraced pass, as the end-to-end
       run would see them. *)
    let g0 = Gc.quick_stat () and e0 = t.events in
    untraced_ms := !untraced_ms +. pass ~traced:false ~digest:(!r = 0) ops;
    let g1 = Gc.quick_stat () in
    minor := !minor + (g1.minor_collections - g0.minor_collections);
    major := !major + (g1.major_collections - g0.major_collections);
    untraced_events := !untraced_events + (t.events - e0);
    traced_ms := !traced_ms +. pass ~traced:true ~digest:false ops;
    incr r
  done;
  let overhead = (!traced_ms /. !untraced_ms) -. 1.0 in
  Printf.printf
    "rounds %d, host time untraced %.3f s, traced %.3f s: tracing \
     overhead %+.2f%%\n"
    !r (!untraced_ms /. 1e3) (!traced_ms /. 1e3) (100.0 *. overhead);
  (* A cold op empties the arena memo, and the next call that needs a
     matrix trace would compile it inside its own layer's span.  So the
     cold workload's own loop is followed by compiling the matrix traces
     again in their own layer, and the other workloads' cold ops go
     last. *)
  if a.workload = "cold-characterise" then
    List.iter (fun (i : Workloads.input) -> ignore (Workloads.compile i.trace)) inputs;
  let untimed op = ignore (Loop.run t ~timed:false ~digest:true op) in
  let warm, cold = other_rounds ~workload:a.workload ~seed:a.seed st inputs in
  List.iter untimed warm;
  List.iter untimed (Sim_metrics.missing_ops st inputs);
  List.iter untimed cold;
  Span.recording := false;
  print_self_times ();
  Option.iter Span.write a.spans_out;
  Printf.printf "sim_digest %016x\n" t.digest;
  let per_mevent n = float_of_int n *. 1e6 /. float_of_int !untraced_events in
  print_result t
    (host_layers ~gc_minor:(per_mevent !minor) ~gc_major:(per_mevent !major)
       ~overhead
    @ Sim_metrics.per_layer st)

let () =
  (* No arena cache: set-up must generate, not decode from disk. *)
  Unix.putenv Workload.Trace_arena.cache_env_var "";
  match Array.to_list Sys.argv with
  | [ _; "--self-test" ] -> exit (Selftest.run ())
  | _ ->
    let a = parse_args () in
    if Selftest.run () <> 0 then exit 1;
    Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n%!"
      a.workload a.seed a.seconds (if a.trace then 1 else 0);
    if a.trace then run_traced a else run_untraced a
