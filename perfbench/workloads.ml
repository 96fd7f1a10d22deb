(* The four workloads, their shared inputs, and the simulated outputs
   they leave behind.

   Simulated time is cycles of the modelled enclave; host time is the
   simulator's own wall clock.  Everything here produces simulated
   results; [Main] times the calls. *)

module Trace = Workload.Trace
module Arena = Workload.Trace_arena
module Input = Workload.Input
module Scheme = Preload.Scheme
module Runner = Sim.Runner
module Service = Sim.Service
module Fleet = Sim.Fleet
module Metrics = Sgxsim.Metrics

let epc = 2048

(* ---------- inputs ---------- *)

(* Ref inputs start at ref1: ref0 is the input the models were tuned
   on.  Indices step by 3 so every input has the same size factor
   ([Input.size_factor] cycles with period 3), and two seeds compare
   the same amount of work. *)
let ref_input ~seed ~k = Input.Ref (1 + (3 * ((seed * 1000) + k)))

let matrix_traces =
  [ "microbenchmark"; "lbm"; "roms"; "deepsjeng"; "mcf"; "mcf.2006"; "xz";
    "SIFT"; "MSER"; "mixed-blood" ]

let schemes = [ "baseline"; "dfp"; "dfp_stop"; "sip"; "hybrid"; "online" ]

let model name =
  match Sim.Experiments.find_model name with
  | Some m -> m
  | None -> invalid_arg ("unknown workload model " ^ name)

let compile trace =
  Span.with_ ~events:Arena.length "workload.compile" (fun () ->
      Arena.compile trace)

type input = {
  name : string;
  trace : Trace.t;
  plan : Preload.Sip_instrumenter.plan;  (** From the train input. *)
}

(* One ref trace plus its train-input SIP plan.  A model only describes
   its trace; the generator runs inside [compile]. *)
let build_input ~seed name =
  let m = model name in
  let trace = m ~epc_pages:epc ~input:(ref_input ~seed ~k:0) in
  ignore (compile trace);
  let train = m ~epc_pages:epc ~input:Input.Train in
  ignore (compile train);
  let profile =
    Span.with_
      ~events:(fun (p : Preload.Sip_profiler.t) -> p.total_accesses)
      "sip_profiler.profile"
      (fun () ->
        Preload.Sip_profiler.profile ~input:(Input.to_string Input.Train)
          (Preload.Sip_profiler.default_config ~residency_pages:epc)
          train)
  in
  let plan =
    Span.with_ "sip_profiler.plan" (fun () ->
        Preload.Sip_instrumenter.plan_of_profile profile)
  in
  { name; trace; plan }

(* The set-up every workload shares: the ten matrix traces and their
   plans.  Service and fleet draw their traces from it, and every
   workload's simulated metrics need it.  [between] runs after each
   input. *)
let build_inputs ~seed ~between =
  List.map
    (fun name ->
      let i = build_input ~seed name in
      between ();
      i)
    matrix_traces

let find_input inputs name = List.find (fun i -> i.name = name) inputs

(* ---------- schemes ---------- *)

let scheme_of name plan =
  match name with
  | "baseline" | "online" -> Scheme.Baseline
  | "dfp" -> Scheme.dfp_default
  | "dfp_stop" -> Scheme.dfp_stop
  | "sip" -> Scheme.Sip plan
  | "hybrid" ->
    Scheme.Hybrid (Preload.Dfp.with_stop Preload.Dfp.default_config, plan)
  | s -> invalid_arg ("unknown scheme " ^ s)

let spec_of ~scheme ~trace =
  Runner.Spec.make
    ~config:{ Runner.default_config with epc_pages = epc }
    ~input_label:trace.Trace.name
    ?online:(if scheme = "online" then Some Preload.Online.default_config else None)
    ()

(* ---------- simulated-output hashing ---------- *)

let mix h x = ((h * 0x100000001b3) lxor x) land max_int

let hash_metrics h (m : Metrics.t) =
  List.fold_left mix h
    [ m.cyc_compute; m.cyc_access; m.cyc_aex; m.cyc_eresume; m.cyc_os_handler;
      m.cyc_load_wait; m.cyc_bitmap_check; m.cyc_notify; m.cyc_sip_wait;
      m.cyc_restart; m.accesses; m.faults; m.faults_in_flight;
      m.faults_already_present; m.preloads_requested;
      m.preloads_rejected_range; m.preloads_rejected_dup;
      m.preloads_rejected_breaker; m.preloads_issued; m.preloads_completed;
      m.preloads_aborted; m.preloads_taken_over; m.preloads_skipped;
      m.preload_hits; m.preload_evicted_unused; m.evictions; m.sip_checks;
      m.sip_notifies; m.scans; m.crashes; m.crash_pages_lost ]

let hash_result h (r : Runner.result) =
  let h = mix (mix h r.cycles) r.final_now in
  let h = mix h r.diagnostics.resident_at_end in
  let h =
    match r.diagnostics.online with
    | None -> h
    | Some s -> mix (mix h (List.length s.s_transitions)) s.s_instrumented
  in
  hash_metrics h r.metrics

let hash_service h (o : Service.outcome) =
  let h =
    List.fold_left mix h
      [ o.dispatched; o.completed; o.failed; o.in_flight; o.slo_violations;
        o.makespan ]
  in
  let h = Array.fold_left (fun h l -> mix h (int_of_float l)) h o.latencies in
  List.fold_left hash_result h o.results

let hash_fleet h (o : Fleet.outcome) =
  let h = List.fold_left hash_result h o.results in
  let h = Array.fold_left (Array.fold_left mix) h o.interference in
  let h = Array.fold_left mix h o.channel_waits in
  mix h o.channel_contentions

(* ---------- ops ---------- *)

type outcome = {
  events : int;  (** Trace events the op handled. *)
  problems : string list;  (** Checker violations. *)
  key : int;  (** Hash of every simulated total and counter of the op. *)
}

type op = {
  label : string;  (** Same label = same inputs: keys must agree. *)
  run : unit -> outcome;
}

let problems_of vs =
  List.map (fun (v : Sim.Validate.violation) -> v.check ^ ": " ^ v.detail) vs

(* Results of the first time each cell ran, for the simulated metrics. *)
type store = {
  cells : (string * string, Runner.result) Hashtbl.t;  (** (trace, scheme). *)
  service : (string * string * string, Service.outcome) Hashtbl.t;
      (** (trace, scheme, load). *)
  fleet : (string, Fleet.outcome) Hashtbl.t;  (** Mode name. *)
  mutable reference : Service.outcome option;
      (** The fixed service cell of [Sim_metrics.reference_op]. *)
}

let store () =
  { cells = Hashtbl.create 64; service = Hashtbl.create 16;
    fleet = Hashtbl.create 2; reference = None }

let keep tbl k v = if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k v

(* replay-matrix: one Runner.run of one (trace, scheme) cell. *)
let replay_cell st (i : input) scheme =
  let spec = spec_of ~scheme ~trace:i.trace in
  let s = scheme_of scheme i.plan in
  let events = Trace.length i.trace in
  let r =
    Span.with_ ~events:(fun _ -> events) ("runner." ^ scheme) (fun () ->
        Runner.run ~spec ~scheme:s i.trace)
  in
  let vs = Span.with_ "validate.check" (fun () -> Sim.Validate.check r) in
  ignore (Span.with_ "report.render" (fun () -> Sim.Report.summary r));
  keep st.cells (i.name, scheme) r;
  { events; problems = problems_of vs;
    key = hash_result 0 r }

let replay_round st inputs =
  List.concat_map
    (fun i ->
      List.map
        (fun s -> { label = i.name ^ "/" ^ s; run = (fun () -> replay_cell st i s) })
        schemes)
    inputs

(* cold-characterise: the registry's models in turn, each with an input
   no earlier op used, from an empty arena memo. *)
let cold_models = Sim.Experiments.workload_names ()
let cold_mrc_sizes = [ 512; 1024; 2048; 4096 ]

let cold_op ~seed k =
  let name = List.nth cold_models (k mod List.length cold_models) in
  let input = ref_input ~seed ~k:(k + 1) in
  let run () =
    Arena.clear_memo ();
    let trace = (model name) ~epc_pages:epc ~input in
    let len = Arena.length (compile trace) in
    let stats =
      Span.with_ ~events:(fun _ -> len) "trace_stats.analyse" (fun () ->
          Workload.Trace_stats.analyse trace)
    in
    let mrc =
      Span.with_
        ~events:(fun _ -> len * List.length cold_mrc_sizes)
        "trace_stats.mrc"
        (fun () ->
          Workload.Trace_stats.miss_ratio_curve trace ~epc_pages:cold_mrc_sizes)
    in
    let spec = spec_of ~scheme:"baseline" ~trace in
    let r =
      Span.with_ ~events:(fun _ -> len) "runner.baseline" (fun () ->
          Runner.run ~spec ~scheme:Scheme.Baseline trace)
    in
    let vs = Span.with_ "validate.check" (fun () -> Sim.Validate.check r) in
    ignore
      (Span.with_ "report.render" (fun () ->
           Sim.Report.summary r
           ^ Format.asprintf "%a" Workload.Trace_stats.pp stats));
    let h =
      List.fold_left
        (fun h (_, ratio) -> mix h (Int64.to_int (Int64.bits_of_float ratio)))
        (mix (mix (hash_result 0 r) stats.distinct_pages) stats.sequential_pairs)
        mrc
    in
    { events = len; problems = problems_of vs; key = h }
  in
  { label = Printf.sprintf "%s/%s" name (Input.to_string input); run }

(* Round [r] is one pass over the whole registry. *)
let cold_round ~seed r =
  let n = List.length cold_models in
  List.init n (fun j -> cold_op ~seed ((r * n) + j))

(* service-openloop: Poisson arrivals at two mean gaps per trace, pool
   of 4, 2000 requests of 400 events.  The simulated service is the open
   loop (latency counts from arrival); the host drives it as one
   closed-loop client, one Service.run after another.  The first
   [warmup] requests of every cell fill the empty EPCs and are left out
   of the latency metrics.

   The gaps come from measured cells (ref1, arrival seed 1).  At light
   neither scheme's backlog grows; at heavy baseline's grows and
   hybrid's drains.  A deepsjeng request costs 2.8M cycles at the median
   but 10-12M in the trace's opening phase, which recurs each time the
   request slices wrap round the trace (every 1223 requests).  At the
   stock 2.5M gap that phase lifts baseline's p99 to 157M cycles with
   21% of requests over the SLO, while hybrid's stays at 36M and 4%;
   every shorter gap tried (2.2M down to 1.2M) puts hybrid over 16%.  So
   heavy is the stock gap and light is 3.5M (baseline 2.4%, hybrid
   0.1%).  An lbm request costs a steady 16.3M cycles on baseline and
   14.2M on dfp_stop and hybrid: at 8M neither misses more than 1%; at
   5M baseline misses 21% and hybrid 4%. *)
let service_traces = [ "deepsjeng"; "lbm" ]
let service_schemes = [ "baseline"; "dfp_stop"; "hybrid" ]
let loads = [ "light"; "heavy" ]
let warmup = 200

let gap ~trace load =
  match (trace, load) with
  | "deepsjeng", "light" -> 3_500_000
  | "deepsjeng", "heavy" -> 2_500_000
  | "lbm", "light" -> 8_000_000
  | "lbm", "heavy" -> 5_000_000
  | _ -> invalid_arg ("no service gap for " ^ trace ^ "/" ^ load)

let service_config ~seed ~gap =
  {
    Service.default_config with
    epc_pages = epc;
    pool = 4;
    requests = 2000;
    request_events = 400;
    mean_gap = gap;
    seed = 1 + seed;
  }

(* One Service.run, checked; [seed] picks the arrivals. *)
let service_run ~seed (i : input) scheme load =
  let config = service_config ~seed ~gap:(gap ~trace:i.name load) in
  let o =
    Span.with_
      ~events:(fun _ -> config.requests * config.request_events)
      "service.run"
      (fun () ->
        Service.run ~config ~input_label:i.name ~scheme:(scheme_of scheme i.plan)
          i.trace)
  in
  let vs = Span.with_ "service.check" (fun () -> Service.check o) in
  ignore
    (Span.with_ "report.render" (fun () ->
         Repro_util.Table.render (Service.summary_table [ (scheme, o) ])));
  ( o,
    { events = config.requests * config.request_events;
      problems = problems_of vs; key = hash_service 0 o } )

let service_cell st ~seed (i : input) scheme load =
  let o, outcome = service_run ~seed i scheme load in
  keep st.service (i.name, scheme, load) o;
  outcome

let service_round st ~seed inputs =
  List.concat_map
    (fun t ->
      let i = find_input inputs t in
      List.concat_map
        (fun load ->
          List.map
            (fun s ->
              { label = Printf.sprintf "%s/%s/%s" t s load;
                run = (fun () -> service_cell st ~seed i s load) })
            service_schemes)
        loads)
    service_traces

(* fleet-shared: four hybrid co-tenants over one EPC and one FIFO
   channel, alternating shared and partitioned EPC. *)
let fleet_traces = [ "deepsjeng"; "lbm"; "mcf"; "xz" ]

let fleet_cell st inputs mode =
  let tenants =
    List.map
      (fun t ->
        let i = find_input inputs t in
        Fleet.tenant ~label:t ~scheme:(scheme_of "hybrid" i.plan) i.trace)
      fleet_traces
  in
  let events =
    List.fold_left (fun n (t : Fleet.tenant) -> n + Trace.length t.trace) 0 tenants
  in
  let config = { Fleet.default_config with epc_pages = epc; mode } in
  let o =
    Span.with_ ~events:(fun _ -> events) "fleet.run" (fun () ->
        Fleet.run ~config tenants)
  in
  let vs = Span.with_ "validate.check" (fun () -> Fleet.check o) in
  ignore
    (Span.with_ "report.render" (fun () ->
         String.concat "\n" (Fleet.summary_lines o)));
  keep st.fleet (Fleet.mode_name mode) o;
  { events; problems = problems_of vs; key = hash_fleet 0 o }

let fleet_round st inputs =
  List.map
    (fun mode ->
      { label = Fleet.mode_name mode; run = (fun () -> fleet_cell st inputs mode) })
    [ Fleet.Shared; Fleet.Partitioned ]

(* ---------- the named workloads ---------- *)

let names =
  [ "replay-matrix"; "cold-characterise"; "service-openloop"; "fleet-shared" ]

(* Round [r] of a workload: the ops of one pass over its inputs. *)
let round ~workload ~seed st inputs r =
  match workload with
  | "replay-matrix" -> replay_round st inputs
  | "cold-characterise" -> cold_round ~seed r
  | "service-openloop" -> service_round st ~seed inputs
  | "fleet-shared" -> fleet_round st inputs
  | w -> invalid_arg ("unknown workload " ^ w)
