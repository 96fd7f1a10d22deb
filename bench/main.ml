(* The benchmark harness.

   With no arguments it regenerates every table and figure of the paper's
   evaluation (§5) at full settings, then runs the Bechamel
   micro-benchmarks of the implementation's hot operations.  Individual
   experiment ids (see `bench/main.exe list`) select a subset. *)

open Bechamel
open Toolkit

let experiment_ids = List.map fst Sim.Experiments.all

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one test per hot operation, plus one     *)
(* end-to-end simulation test per paper artefact family.               *)
(* ------------------------------------------------------------------ *)

let ops_tests () =
  let prng = Repro_util.Prng.create 42 in
  let predictor =
    Preload.Stream_predictor.create ~stream_list_length:30 ~load_length:4 ()
  in
  let bitset = Repro_util.Bitset.create 65536 in
  Repro_util.Bitset.set bitset 12345;
  let lru = Repro_util.Page_lru.create ~capacity:2048 in
  for i = 0 to 4095 do
    ignore (Repro_util.Page_lru.touch lru i)
  done;
  let evictor = Sgxsim.Clock_evictor.create ~capacity:1024 in
  let accessed = Array.make 4096 false in
  for p = 0 to 1023 do
    ignore (Sgxsim.Clock_evictor.insert evictor p)
  done;
  let enclave = Sgxsim.Enclave.create ~epc_pages:1024 ~elrange_pages:4096 () in
  let now = ref 0 in
  Test.make_grouped ~name:"ops"
    [
      Test.make ~name:"prng_bits64"
        (Staged.stage (fun () -> ignore (Repro_util.Prng.bits64 prng)));
      Test.make ~name:"predictor_on_fault"
        (Staged.stage (fun () ->
             ignore
               (Preload.Stream_predictor.on_fault predictor
                  (Repro_util.Prng.int prng 4096))));
      Test.make ~name:"bitmap_check"
        (Staged.stage (fun () ->
             ignore
               (Repro_util.Bitset.mem bitset (Repro_util.Prng.int prng 65536))));
      Test.make ~name:"page_lru_touch"
        (Staged.stage (fun () ->
             ignore (Repro_util.Page_lru.touch lru (Repro_util.Prng.int prng 4096))));
      Test.make ~name:"clock_victim"
        (Staged.stage (fun () ->
             ignore
               (Sgxsim.Clock_evictor.choose_victim evictor
                  ~accessed:(fun v -> accessed.(v))
                  ~clear:(fun v -> accessed.(v) <- false))));
      Test.make ~name:"clock_victim_owned"
        (Staged.stage (fun () ->
             (* The fleet sweep: owner-tagged frames plus a pin check on
                every hand position. *)
             ignore
               (Sgxsim.Clock_evictor.choose_victim_owned evictor
                  ~pinned:(fun ~owner:_ ~vpage -> vpage land 255 = 17)
                  ~accessed:(fun ~owner:_ ~vpage -> accessed.(vpage))
                  ~clear:(fun ~owner:_ ~vpage -> accessed.(vpage) <- false))));
      Test.make ~name:"enclave_hot_access"
        (Staged.stage (fun () ->
             (* Page 0 is resident after the first call; later calls are
                the pure in-EPC fast path. *)
             now := Sgxsim.Enclave.access enclave ~now:!now 0));
    ]

let figure_tests () =
  (* One end-to-end Test.make per paper artefact family, at quick
     settings: measures how long regenerating each one takes. *)
  let s = Sim.Experiments.quick in
  let make name f = Test.make ~name (Staged.stage (fun () -> ignore (f s))) in
  (* A small co-tenant pair: two smoke-sized traces sharing 256 frames
     under the global CLOCK — the fleet interleaver's throughput. *)
  let fleet_trace label seed =
    Sim.Macro_bench.queue_stress
      { Sim.Macro_bench.smoke with Sim.Macro_bench.label; events = 10_000; seed }
  in
  let ta = fleet_trace "bench-fleet-a" 1 and tb = fleet_trace "bench-fleet-b" 2 in
  Test.make_grouped ~name:"figures"
    [
      make "fig2_timelines" Sim.Experiments.fig2_timelines;
      make "fig4_costs" Sim.Experiments.fig4_costs;
      make "fig6_sweep" Sim.Experiments.fig6_sweep;
      make "fig8_rows" Sim.Experiments.fig8_rows;
      make "fig13_rows" Sim.Experiments.fig13_rows;
      Test.make ~name:"fleet_shared_pair"
        (Staged.stage (fun () ->
             ignore
               (Sim.Fleet.run
                  ~config:
                    { Sim.Fleet.default_config with Sim.Fleet.epc_pages = 256 }
                  [
                    Sim.Fleet.tenant ~label:"a" ~scheme:Preload.Scheme.dfp_default ta;
                    Sim.Fleet.tenant ~label:"b" ~scheme:Preload.Scheme.Baseline tb;
                  ])));
    ]

let run_bechamel ~quota_s test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, result) ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (e :: _) -> Printf.sprintf "%12.1f ns/run" e
        | Some [] | None -> "           n/a"
      in
      let r2 =
        match Analyze.OLS.r_square result with
        | Some r -> Printf.sprintf "r2=%.3f" r
        | None -> ""
      in
      Printf.printf "  %-40s %s  %s\n%!" name estimate r2)
    rows

let print_ops () =
  print_endline "## E-ops — Bechamel micro-benchmarks of hot operations\n";
  run_bechamel ~quota_s:0.5 (ops_tests ());
  print_newline ();
  print_endline
    "## E-ops — end-to-end artefact regeneration (quick settings)\n";
  run_bechamel ~quota_s:1.0 (figure_tests ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-runtime: end-to-end simulator throughput (macro-benchmark)        *)
(* ------------------------------------------------------------------ *)

let run_runtime ~jobs settings =
  let report = Sim.Macro_bench.run ~clock:Unix.gettimeofday ~jobs settings in
  Sim.Macro_bench.print report;
  let path = "BENCH_runtime.json" in
  let oc = open_out path in
  output_string oc (Sim.Macro_bench.to_json report);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let print_list () =
  print_endline "experiments:";
  List.iter
    (fun (id, descr) -> Printf.printf "  %-14s %s\n" id descr)
    Sim.Experiments.all;
  print_endline "  ops            Bechamel micro-benchmarks";
  print_endline
    "  runtime        macro-benchmark: wall-clock throughput per scheme on \
     the queue-stress trace (writes BENCH_runtime.json)";
  print_endline "  runtime-smoke  the same at CI-sized settings";
  print_endline "  all            everything above";
  print_endline "";
  print_endline
    "options: -j N   fan experiment cells / runtime replays out across N \
     forked workers (output is byte-identical; default 1)"

(* Strip a leading/interspersed [-j N] (or [-jN]) from the argument
   list; everything else is an experiment id as before. *)
let parse_jobs args =
  let rec go jobs acc = function
    | [] -> (jobs, List.rev acc)
    | "-j" :: n :: rest | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> go j acc rest
      | Some _ | None ->
        Printf.eprintf "-j expects a positive integer, got %S\n" n;
        exit 1)
    | [ ("-j" | "--jobs") ] ->
      Printf.eprintf "-j expects a worker count\n";
      exit 1
    | arg :: rest
      when String.length arg > 2 && String.sub arg 0 2 = "-j"
           && int_of_string_opt (String.sub arg 2 (String.length arg - 2))
              <> None -> (
      match int_of_string_opt (String.sub arg 2 (String.length arg - 2)) with
      | Some j when j >= 1 -> go j acc rest
      | _ ->
        Printf.eprintf "-j expects a positive integer, got %S\n" arg;
        exit 1)
    | arg :: rest -> go jobs (arg :: acc) rest
  in
  go 1 [] args

let () =
  let jobs, args = parse_jobs (List.tl (Array.to_list Sys.argv)) in
  let settings = { Sim.Experiments.default with jobs } in
  match args with
  | [ "list" ] -> print_list ()
  | [] | [ "all" ] ->
    print_endline
      "# Regenerating every table and figure of \"Regaining Lost Seconds\" \
       (Middleware '20)\n";
    Printf.printf "settings: EPC = %d pages, ref input = %s\n\n"
      settings.epc_pages
      (Workload.Input.to_string settings.ref_input);
    List.iter
      (fun (id, _) ->
        Sim.Experiments.run id settings;
        print_newline ())
      Sim.Experiments.all;
    print_ops ();
    run_runtime ~jobs Sim.Macro_bench.full
  | ids ->
    List.iter
      (fun id ->
        if id = "ops" then print_ops ()
        else if id = "runtime" then run_runtime ~jobs Sim.Macro_bench.full
        else if id = "runtime-smoke" then run_runtime ~jobs Sim.Macro_bench.smoke
        else if List.mem id experiment_ids then begin
          Sim.Experiments.run id settings;
          print_newline ()
        end
        else begin
          Printf.eprintf "unknown experiment %S\n" id;
          print_list ();
          exit 1
        end)
      ids
