module Event = Sgxsim.Event
module Metrics = Sgxsim.Metrics
module Load_channel = Sgxsim.Load_channel

(* ------------------------------------------------------------------ *)
(* Minimal JSON emission                                               *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = Printf.sprintf "\"%s\"" (escape s)

let obj fields =
  Printf.sprintf "{%s}"
    (String.concat ","
       (List.map (fun (k, value) -> Printf.sprintf "%s:%s" (str k) value) fields))

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (Perfetto / chrome://tracing loadable)       *)
(* ------------------------------------------------------------------ *)

(* Track (thread) ids within the single simulated-enclave process. *)
let tid_app = 1
let tid_channel = 2
let tid_scan = 3
let tid_queue = 4

let span ~name ~cat ~tid ~ts ~dur args =
  ( ts,
    obj
      ([
         ("name", str name); ("cat", str cat); ("ph", str "X");
         ("ts", string_of_int ts); ("dur", string_of_int dur);
         ("pid", "1"); ("tid", string_of_int tid);
       ]
      @ if args = [] then [] else [ ("args", obj args) ]) )

let instant ~name ~cat ~tid ~ts args =
  ( ts,
    obj
      ([
         ("name", str name); ("cat", str cat); ("ph", str "i");
         ("s", str "t"); ("ts", string_of_int ts);
         ("pid", "1"); ("tid", string_of_int tid);
       ]
      @ if args = [] then [] else [ ("args", obj args) ]) )

let metadata ~name ~tid args =
  obj
    [
      ("name", str name); ("ph", str "M"); ("pid", "1");
      ("tid", string_of_int tid); ("args", obj args);
    ]

let kind_str = function
  | Load_channel.Demand -> "demand"
  | Load_channel.Preload_dfp -> "dfp"
  | Load_channel.Preload_sip -> "sip"

(* Walk the chronological event list pairing span endpoints:
   Fault -> Eresume on the app track, Load_start -> Load_done on the
   channel track, absent Sip_check -> Sip_notify on the app track.
   Unpaired endpoints (a truncated log, a load still in flight) degrade
   to instants rather than being dropped. *)
let trace_events events =
  let out = ref [] in
  let emit e = out := e :: !out in
  let fault : (int * int) option ref = ref None in
  let load : (int * int * Load_channel.kind) option ref = ref None in
  let sip_checks : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e with
      | Event.Fault { at; vpage } -> fault := Some (vpage, at)
      | Event.Aex_done { at; vpage } ->
        emit
          (instant ~name:"aex-done" ~cat:"fault" ~tid:tid_app ~ts:at
             [ ("vpage", string_of_int vpage) ])
      | Event.Eresume { at; vpage } -> (
        match !fault with
        | Some (v0, t0) when v0 = vpage ->
          fault := None;
          emit
            (span
               ~name:(Printf.sprintf "fault p%d" vpage)
               ~cat:"fault" ~tid:tid_app ~ts:t0 ~dur:(at - t0)
               [ ("vpage", string_of_int vpage) ])
        | Some _ | None ->
          emit
            (instant ~name:"eresume" ~cat:"fault" ~tid:tid_app ~ts:at
               [ ("vpage", string_of_int vpage) ]))
      | Event.Load_start { at; vpage; kind } -> load := Some (vpage, at, kind)
      | Event.Load_done { at; vpage; kind } -> (
        match !load with
        | Some (v0, t0, k0) when v0 = vpage && k0 = kind ->
          load := None;
          emit
            (span
               ~name:(Printf.sprintf "load p%d (%s)" vpage (kind_str kind))
               ~cat:"load" ~tid:tid_channel ~ts:t0 ~dur:(at - t0)
               [ ("vpage", string_of_int vpage); ("kind", str (kind_str kind)) ])
        | Some _ | None ->
          emit
            (instant ~name:"load-done" ~cat:"load" ~tid:tid_channel ~ts:at
               [ ("vpage", string_of_int vpage) ]))
      | Event.Sip_check { at; vpage; present } ->
        if present then
          emit
            (instant ~name:"sip-check hit" ~cat:"sip" ~tid:tid_app ~ts:at
               [ ("vpage", string_of_int vpage) ])
        else Hashtbl.replace sip_checks vpage at
      | Event.Sip_notify { at; vpage } -> (
        match Hashtbl.find_opt sip_checks vpage with
        | Some t0 ->
          Hashtbl.remove sip_checks vpage;
          emit
            (span
               ~name:(Printf.sprintf "sip-notify p%d" vpage)
               ~cat:"sip" ~tid:tid_app ~ts:t0 ~dur:(at - t0)
               [ ("vpage", string_of_int vpage) ])
        | None ->
          emit
            (instant ~name:"sip-notify" ~cat:"sip" ~tid:tid_app ~ts:at
               [ ("vpage", string_of_int vpage) ]))
      | Event.Evict { at; vpage } ->
        emit
          (instant ~name:"evict" ~cat:"epc" ~tid:tid_scan ~ts:at
             [ ("vpage", string_of_int vpage) ])
      | Event.Scan { at } ->
        emit (instant ~name:"clock-scan" ~cat:"epc" ~tid:tid_scan ~ts:at [])
      | Event.Preload_queued { at; vpage } ->
        emit
          (instant ~name:"preload-queued" ~cat:"preload" ~tid:tid_queue ~ts:at
             [ ("vpage", string_of_int vpage) ])
      | Event.Preload_aborted { at; count } ->
        emit
          (instant ~name:"preload-aborted" ~cat:"preload" ~tid:tid_queue ~ts:at
             [ ("count", string_of_int count) ])
      | Event.Crash { at; pages_lost } ->
        (* A crash orphans any open fault/load span; drop the pending
           starts so they degrade to instants rather than pairing with
           post-restart endpoints. *)
        fault := None;
        load := None;
        emit
          (instant ~name:"crash" ~cat:"fault" ~tid:tid_app ~ts:at
             [ ("pages_lost", string_of_int pages_lost) ])
      | Event.Access { at; vpage } ->
        emit
          (instant ~name:"access" ~cat:"app" ~tid:tid_app ~ts:at
             [ ("vpage", string_of_int vpage) ]))
    events;
  (* Spans are emitted when their end event is seen but stamped with
     their start time, so re-sort: viewers and the export test expect
     timestamp order. *)
  List.map snd
    (List.stable_sort
       (fun (ts_a, _) (ts_b, _) -> compare ts_a ts_b)
       (List.rev !out))

let chrome_trace (r : Runner.result) =
  let process_label =
    Printf.sprintf "%s/%s%s" r.workload r.scheme
      (if r.input = "" then "" else " (" ^ r.input ^ ")")
  in
  let header =
    metadata ~name:"process_name" ~tid:tid_app [ ("name", str process_label) ]
    :: List.map
         (fun (tid, name) ->
           metadata ~name:"thread_name" ~tid [ ("name", str name) ])
         [
           (tid_app, "app thread"); (tid_channel, "load channel");
           (tid_scan, "service scan"); (tid_queue, "preload queue");
         ]
  in
  Printf.sprintf "{%s:%s,%s:[\n%s\n]}" (str "displayTimeUnit") (str "ns")
    (str "traceEvents")
    (String.concat ",\n" (header @ trace_events r.events))

(* ------------------------------------------------------------------ *)
(* Result rows: JSONL / CSV                                            *)
(* ------------------------------------------------------------------ *)

(* One static column list: the JSONL keys, the CSV header and the CSV
   cells are all read off it, so they cannot drift apart. *)
let row_fields : (string * (Runner.result -> string)) list =
  let int f (r : Runner.result) = string_of_int (f r) in
  let bool f (r : Runner.result) = if f r then "true" else "false" in
  let metric f = int (fun r -> f r.metrics) in
  let online ~none f (r : Runner.result) =
    Option.fold ~none ~some:f r.diagnostics.online
  in
  [
    ("workload", fun r -> str r.workload);
    ("input", fun r -> str r.input);
    ("scheme", fun r -> str r.scheme);
    ("cycles", int (fun r -> r.cycles));
    ("final_now", int (fun r -> r.final_now));
    ("cyc_compute", metric (fun m -> m.cyc_compute));
    ("cyc_access", metric (fun m -> m.cyc_access));
    ("cyc_aex", metric (fun m -> m.cyc_aex));
    ("cyc_eresume", metric (fun m -> m.cyc_eresume));
    ("cyc_os_handler", metric (fun m -> m.cyc_os_handler));
    ("cyc_load_wait", metric (fun m -> m.cyc_load_wait));
    ("cyc_bitmap_check", metric (fun m -> m.cyc_bitmap_check));
    ("cyc_notify", metric (fun m -> m.cyc_notify));
    ("cyc_sip_wait", metric (fun m -> m.cyc_sip_wait));
    ("cyc_restart", metric (fun m -> m.cyc_restart));
    ("accesses", metric (fun m -> m.accesses));
    ("faults", metric (fun m -> m.faults));
    ("faults_in_flight", metric (fun m -> m.faults_in_flight));
    ("faults_already_present", metric (fun m -> m.faults_already_present));
    ("total_faults", metric Metrics.total_faults);
    ("preloads_issued", metric (fun m -> m.preloads_issued));
    ("preloads_rejected_breaker", metric (fun m -> m.preloads_rejected_breaker));
    ("preloads_completed", metric (fun m -> m.preloads_completed));
    ("preloads_aborted", metric (fun m -> m.preloads_aborted));
    ("preloads_taken_over", metric (fun m -> m.preloads_taken_over));
    ("preloads_skipped", metric (fun m -> m.preloads_skipped));
    ("preload_hits", metric (fun m -> m.preload_hits));
    ("preload_evicted_unused", metric (fun m -> m.preload_evicted_unused));
    ("evictions", metric (fun m -> m.evictions));
    ("sip_checks", metric (fun m -> m.sip_checks));
    ("sip_notifies", metric (fun m -> m.sip_notifies));
    ("scans", metric (fun m -> m.scans));
    ("crashes", metric (fun m -> m.crashes));
    ("crash_pages_lost", metric (fun m -> m.crash_pages_lost));
    ("dfp_stopped", bool (fun r -> r.dfp_stopped));
    ("instrumentation_points", int (fun r -> r.instrumentation_points));
    ("pending_preloads", int (fun r -> r.diagnostics.pending_preloads));
    ("in_flight_preloads", int (fun r -> r.diagnostics.in_flight_preloads));
    ( "in_flight_kind",
      fun r ->
        str (Option.fold ~none:"none" ~some:kind_str r.diagnostics.in_flight_kind) );
    ("resident_at_end", int (fun r -> r.diagnostics.resident_at_end));
    ("events_truncated", bool (fun r -> r.diagnostics.events_truncated));
    ( "online_mode",
      online ~none:(str "none") (fun s ->
          str (Preload.Online.mode_name s.Preload.Online.final_mode)) );
    ( "online_transitions",
      online ~none:"0" (fun s ->
          string_of_int (List.length s.Preload.Online.s_transitions)) );
    ( "online_phase_shifts",
      online ~none:"0" (fun s -> string_of_int s.Preload.Online.s_phase_shifts) );
    ( "online_instrumented",
      online ~none:"0" (fun s -> string_of_int s.Preload.Online.s_instrumented) );
  ]

let jsonl_row r = obj (List.map (fun (name, get) -> (name, get r)) row_fields)

let csv_header = String.concat "," (List.map fst row_fields)

let csv_cell value =
  (* JSON string values arrive quoted; CSV wants them bare (workload and
     scheme names contain no commas or quotes). *)
  let n = String.length value in
  if n >= 2 && value.[0] = '"' && value.[n - 1] = '"' then String.sub value 1 (n - 2)
  else value

let csv_row r = String.concat "," (List.map (fun (_, get) -> csv_cell (get r)) row_fields)

(* ------------------------------------------------------------------ *)
(* The one rendering entry point                                       *)
(* ------------------------------------------------------------------ *)

type format = Chrome_trace | Jsonl | Csv

let formats =
  [ ("chrome-trace", Chrome_trace); ("jsonl", Jsonl); ("csv", Csv) ]

let needs_events = function Chrome_trace -> true | Jsonl | Csv -> false

(* The single exhaustiveness-checked dispatch: adding a format extends
   the variant, and the compiler walks every consumer here. *)
let render ~format r =
  match format with
  | Chrome_trace -> chrome_trace r ^ "\n"
  | Jsonl -> jsonl_row r ^ "\n"
  | Csv -> csv_header ^ "\n" ^ csv_row r ^ "\n"
