type category = Small_working_set | Large_irregular | Large_regular

let category_name = function
  | Small_working_set -> "small working set"
  | Large_irregular -> "large working set, irregular access"
  | Large_regular -> "large working set, regular access"

type model = epc_pages:int -> input:Input.t -> Trace.t

(* Scale an event count by the input set's size factor (train < ref). *)
let scale input n =
  max 1 (int_of_float (Input.size_factor input *. float_of_int n))

(* A fraction of the EPC, in pages. *)
let frac epc r = max 1 (int_of_float (float_of_int epc *. r))

let seed_for ~base ~input = Input.seed_of input ~base

(* ------------------------------------------------------------------ *)
(* Large working set, regular access                                   *)
(* ------------------------------------------------------------------ *)

let microbenchmark ~epc_pages ~input =
  (* The §1 motivation program: a loop sequentially scanning a region ~8x
     the EPC (1 GB against a 96 MB EPC on real hardware). *)
  let pages = 8 * epc_pages in
  let pattern =
    Pattern.repeat (max 1 (scale input 2))
      (Pattern.sequential ~site:0 ~base:0 ~pages ~events_per_page:8
         ~compute:27_000 ~jitter:0.05)
  in
  Trace.make ~name:"microbenchmark" ~elrange_pages:pages ~footprint_pages:pages
    ~seed:(seed_for ~base:101 ~input)
    ~sites:[ (0, "scan_loop") ]
    pattern

let bwaves ~epc_pages ~input =
  (* CFD over several field arrays advancing in lockstep: concurrent
     sequential streams, the shape of Fig. 3a. *)
  let stream_pages = frac epc_pages 0.75 in
  let streams = List.init 5 (fun i -> (i * stream_pages, stream_pages)) in
  let footprint = 5 * stream_pages in
  let sweep =
    Pattern.multi_stream ~site:0 ~streams ~events_per_page:10 ~compute:56_000
      ~jitter:0.25
  in
  let coefficients =
    Pattern.zipf ~site:1 ~base:footprint ~pages:(frac epc_pages 0.05)
      ~events:(scale input 8_000) ~s:1.2 ~compute:20_000 ~jitter:0.3
  in
  let round = Pattern.weighted_interleave [ (12, sweep); (1, coefficients) ] in
  let pattern = Pattern.repeat (max 1 (scale input 2)) round in
  Trace.make ~name:"bwaves"
    ~elrange_pages:(footprint + frac epc_pages 0.05)
    ~footprint_pages:(footprint + frac epc_pages 0.05)
    ~seed:(seed_for ~base:102 ~input)
    ~sites:[ (0, "field_sweep"); (1, "coefficients") ]
    pattern

let lbm ~epc_pages ~input =
  (* Lattice-Boltzmann: whole-array source/destination sweeps alternating
     each timestep — the clean diagonal of Fig. 3c. *)
  let array_pages = frac epc_pages 1.5 in
  let sweep site base =
    Pattern.sequential ~site ~base ~pages:array_pages ~events_per_page:10
      ~compute:34_000 ~jitter:0.15
  in
  let timestep = Pattern.seq_list [ sweep 0 0; sweep 1 array_pages ] in
  let pattern = Pattern.repeat (max 1 (scale input 3)) timestep in
  Trace.make ~name:"lbm" ~elrange_pages:(2 * array_pages)
    ~footprint_pages:(2 * array_pages)
    ~seed:(seed_for ~base:103 ~input)
    ~sites:[ (0, "stream_src"); (1, "stream_dst") ]
    pattern

let wrf ~epc_pages ~input =
  (* Weather model: phased sweeps over many smaller field arrays; one
     physics kernel walks with a stride. *)
  let field_pages = frac epc_pages 0.5 in
  let fields =
    List.init 6 (fun i ->
        Pattern.sequential ~site:i ~base:(i * field_pages) ~pages:field_pages
          ~events_per_page:8 ~compute:80_000 ~jitter:0.2)
  in
  let strided =
    Pattern.strided ~site:6 ~base:0 ~pages:(3 * field_pages) ~stride:3
      ~events_per_page:3 ~compute:55_000 ~jitter:0.2
  in
  let phase = Pattern.seq_list (fields @ [ strided ]) in
  let pattern = Pattern.repeat (max 1 (scale input 2)) phase in
  let sites =
    List.init 6 (fun i -> (i, Printf.sprintf "field%d_sweep" i))
    @ [ (6, "physics_strided") ]
  in
  Trace.make ~name:"wrf" ~elrange_pages:(6 * field_pages)
    ~footprint_pages:(6 * field_pages)
    ~seed:(seed_for ~base:104 ~input)
    ~sites pattern

(* ------------------------------------------------------------------ *)
(* Large working set, irregular access                                  *)
(* ------------------------------------------------------------------ *)

let roms ~epc_pages ~input =
  (* Ocean model: short sequential bursts at scattered grid positions.
     Every adjacent-page fault pair looks like a nascent stream, so DFP
     keeps preloading pages that are never used — the 42%-overhead
     pathology of Fig. 8. *)
  let grid_pages = 3 * epc_pages in
  let burst site =
    Pattern.bursty ~site ~base:0 ~pages:grid_pages ~events:(scale input 14_000)
      ~run_min:2 ~run_max:3 ~events_per_page:2 ~compute:500 ~jitter:0.2
  in
  let strided =
    Pattern.strided ~site:3 ~base:0 ~pages:(2 * epc_pages) ~stride:13
      ~events_per_page:4 ~compute:900 ~jitter:0.2
  in
  let hot =
    Pattern.zipf ~site:4 ~base:grid_pages ~pages:(frac epc_pages 0.1)
      ~events:(scale input 4_000) ~s:1.1 ~compute:900 ~jitter:0.3
  in
  let pattern =
    Pattern.weighted_interleave
      [ (4, burst 0); (4, burst 1); (4, burst 2); (3, strided); (2, hot) ]
  in
  let sites =
    [
      (0, "grid_burst_a"); (1, "grid_burst_b"); (2, "grid_burst_c");
      (3, "column_sweep"); (4, "diagnostics");
    ]
  in
  Trace.make ~name:"roms"
    ~elrange_pages:(grid_pages + frac epc_pages 0.1)
    ~footprint_pages:(grid_pages + frac epc_pages 0.1)
    ~seed:(seed_for ~base:105 ~input)
    ~sites pattern

let mcf ~epc_pages ~input =
  (* CPU2017 mcf: the §5.2 dilemma.  Many sites interleave hot structure
     accesses (Class 1) with irregular arc lookups (Class 3) at the same
     instruction, with almost no Class 2 — instrumenting them trades
     avoided faults against per-access check overhead, and the two
     roughly cancel. *)
  let hot_pages = frac epc_pages 0.4 in
  let cold_base = hot_pages in
  let cold_pages = 3 * epc_pages in
  let n_mixed = 98 in
  (* The key input dependence of §5.2: on the train input these sites look
     usefully irregular (and get instrumented); on the ref inputs the same
     instructions run hot-dominated, so the checks tax mostly Class 1
     accesses and the benefit washes out. *)
  let ratio_base =
    match input with Input.Train -> 0.18 | Input.Ref _ -> 0.008
  in
  let ratio_step =
    match input with Input.Train -> 0.08 | Input.Ref _ -> 0.004
  in
  let mixed =
    List.init n_mixed (fun i ->
        let irregular_ratio = ratio_base +. (ratio_step *. float_of_int (i mod 4)) in
        ( 2,
          Pattern.mixed_site ~site:i ~hot_base:0 ~hot_pages ~cold_base
            ~cold_pages ~events:(scale input 900) ~irregular_ratio
            ~compute:6_000 ~jitter:0.3 ))
  in
  let hot_only =
    List.init 15 (fun i ->
        ( 2,
          Pattern.zipf ~site:(n_mixed + i) ~base:0 ~pages:hot_pages
            ~events:(scale input 1_400) ~s:1.2 ~compute:8_000 ~jitter:0.3 ))
  in
  let init_scan =
    (* Struct-of-arrays initialization touches nodes >4 KB apart, so the
       fault sequence is strided, not sequential: nothing for DFP. *)
    Pattern.strided ~site:(n_mixed + 15) ~base:cold_base ~pages:cold_pages
      ~stride:2 ~events_per_page:1 ~compute:2_000 ~jitter:0.1
  in
  let tree_walk =
    (* Short adjacent-page walks along the spanning tree: the modest
       false-stream source behind mcf's small DFP overhead in Fig. 8. *)
    ( 1,
      Pattern.bursty ~site:(n_mixed + 16) ~base:cold_base ~pages:cold_pages
        ~events:(scale input 9_000) ~run_min:2 ~run_max:3 ~events_per_page:4
        ~compute:1_500 ~jitter:0.2 )
  in
  let pattern =
    Pattern.seq_list
      [ init_scan; Pattern.weighted_interleave ((tree_walk :: mixed) @ hot_only) ]
  in
  let sites =
    List.init n_mixed (fun i -> (i, Printf.sprintf "arc_lookup%d" i))
    @ List.init 15 (fun i -> (n_mixed + i, Printf.sprintf "node_hot%d" i))
    @ [ (n_mixed + 15, "network_init"); (n_mixed + 16, "tree_walk") ]
  in
  Trace.make ~name:"mcf"
    ~elrange_pages:(cold_base + cold_pages)
    ~footprint_pages:(cold_base + cold_pages)
    ~seed:(seed_for ~base:106 ~input)
    ~sites pattern

let mcf_2006 ~epc_pages ~input =
  (* CPU2006 mcf: same problem, different implementation — the irregular
     accesses live in sites of their own, so SIP can instrument them
     without taxing hot accesses (+4.9% in the paper). *)
  let hot_pages = frac epc_pages 0.4 in
  let cold_base = hot_pages in
  let cold_pages = frac epc_pages 1.6 in
  let n_irregular = 114 in
  let irregular =
    List.init n_irregular (fun i ->
        ( 2,
          Pattern.uniform_random ~site:i ~base:cold_base ~pages:cold_pages
            ~events:(scale input 420) ~compute:17_000 ~jitter:0.3 ))
  in
  let hot_only =
    List.init 30 (fun i ->
        ( 3,
          Pattern.zipf ~site:(n_irregular + i) ~base:0 ~pages:hot_pages
            ~events:(scale input 1_600) ~s:1.2 ~compute:75_000 ~jitter:0.3 ))
  in
  let init_scan =
    Pattern.strided ~site:(n_irregular + 30) ~base:cold_base ~pages:cold_pages
      ~stride:2 ~events_per_page:1 ~compute:2_000 ~jitter:0.1
  in
  let pattern =
    Pattern.seq_list
      [ init_scan; Pattern.weighted_interleave (irregular @ hot_only) ]
  in
  let sites =
    List.init n_irregular (fun i -> (i, Printf.sprintf "arc_scan%d" i))
    @ List.init 30 (fun i -> (n_irregular + i, Printf.sprintf "basket_hot%d" i))
    @ [ (n_irregular + 30, "network_init") ]
  in
  Trace.make ~name:"mcf.2006"
    ~elrange_pages:(cold_base + cold_pages)
    ~footprint_pages:(cold_base + cold_pages)
    ~seed:(seed_for ~base:107 ~input)
    ~sites pattern

let deepsjeng ~epc_pages ~input =
  (* Chess: transposition-table probes scattered over a table much larger
     than the EPC (Fig. 3b), plus a hot evaluation core and move stacks
     that touch short runs of adjacent pages. *)
  let table_base = frac epc_pages 0.3 in
  let table_pages = 4 * epc_pages in
  let n_probe = 34 in
  let probes =
    List.init n_probe (fun i ->
        ( 2,
          Pattern.uniform_random ~site:i ~base:table_base ~pages:table_pages
            ~events:(scale input 1_200) ~compute:2_000 ~jitter:0.3 ))
  in
  let eval =
    List.init 8 (fun i ->
        ( 3,
          Pattern.zipf ~site:(n_probe + i) ~base:0 ~pages:table_base
            ~events:(scale input 2_600) ~s:1.3 ~compute:2_500 ~jitter:0.3 ))
  in
  (* Move generation touches short runs of adjacent stack/board pages;
     with many touches per page its Class 3 share stays under the SIP
     threshold, so its faults are left to DFP — which opens streams that
     die after two or three pages.  This site is both the reason SIP's
     fault coverage is partial and the reason plain DFP hurts deepsjeng. *)
  let move_stack =
    ( 60,
      Pattern.bursty ~site:(n_probe + 8) ~base:table_base ~pages:table_pages
        ~events:(scale input 400_000) ~run_min:2 ~run_max:3 ~events_per_page:8
        ~compute:400 ~jitter:0.2 )
  in
  let pattern = Pattern.weighted_interleave (probes @ eval @ [ move_stack ]) in
  let sites =
    List.init n_probe (fun i -> (i, Printf.sprintf "tt_probe%d" i))
    @ List.init 8 (fun i -> (n_probe + i, Printf.sprintf "eval%d" i))
    @ [ (n_probe + 8, "move_stack") ]
  in
  Trace.make ~name:"deepsjeng"
    ~elrange_pages:(table_base + table_pages)
    ~footprint_pages:(table_base + table_pages)
    ~seed:(seed_for ~base:108 ~input)
    ~sites pattern

let omnetpp ~epc_pages ~input =
  (* Discrete-event network simulation: chasing message/module pointers
     through a fragmented heap. *)
  let heap_pages = frac epc_pages 2.5 in
  let chases =
    List.init 18 (fun i ->
        ( 2,
          Pattern.pointer_chase ~site:i ~base:0 ~pages:heap_pages
            ~events:(scale input 2_200) ~locality:0.55 ~compute:2_000
            ~jitter:0.3 ))
  in
  let queue =
    List.init 6 (fun i ->
        ( 2,
          Pattern.zipf ~site:(18 + i) ~base:heap_pages
            ~pages:(frac epc_pages 0.15) ~events:(scale input 2_400) ~s:1.2
            ~compute:1_300 ~jitter:0.3 ))
  in
  let pattern = Pattern.weighted_interleave (chases @ queue) in
  let sites =
    List.init 18 (fun i -> (i, Printf.sprintf "msg_chase%d" i))
    @ List.init 6 (fun i -> (18 + i, Printf.sprintf "event_queue%d" i))
  in
  Trace.make ~name:"omnetpp"
    ~elrange_pages:(heap_pages + frac epc_pages 0.15)
    ~footprint_pages:(heap_pages + frac epc_pages 0.15)
    ~seed:(seed_for ~base:109 ~input)
    ~sites pattern

let xz ~epc_pages ~input =
  (* Compression: a sequential pass over the input interleaved with match
     probes jumping around the dictionary window. *)
  let input_pages = 2 * epc_pages in
  let window_base = input_pages in
  let window_pages = epc_pages in
  let scan =
    Pattern.sequential ~site:0 ~base:0 ~pages:input_pages ~events_per_page:4
      ~compute:30_000 ~jitter:0.15
  in
  let n_match = 46 in
  let matches =
    List.init n_match (fun i ->
        ( 1,
          Pattern.uniform_random ~site:(1 + i) ~base:window_base
            ~pages:window_pages ~events:(scale input 800) ~compute:8_000
            ~jitter:0.3 ))
  in
  let huffman =
    List.init 8 (fun i ->
        ( 1,
          Pattern.zipf ~site:(1 + n_match + i)
            ~base:(window_base + window_pages) ~pages:(frac epc_pages 0.08)
            ~events:(scale input 1_500) ~s:1.3 ~compute:10_000 ~jitter:0.3 ))
  in
  let pattern =
    Pattern.weighted_interleave (((n_match + 8) / 3, scan) :: (matches @ huffman))
  in
  let sites =
    ((0, "input_scan")
    :: List.init n_match (fun i -> (1 + i, Printf.sprintf "match_probe%d" i)))
    @ List.init 8 (fun i -> (1 + n_match + i, Printf.sprintf "huffman%d" i))
  in
  Trace.make ~name:"xz"
    ~elrange_pages:(window_base + window_pages + frac epc_pages 0.08)
    ~footprint_pages:(window_base + window_pages + frac epc_pages 0.08)
    ~seed:(seed_for ~base:110 ~input)
    ~sites pattern

(* ------------------------------------------------------------------ *)
(* Small working set                                                    *)
(* ------------------------------------------------------------------ *)

let small_ws ~name ~seed_base ~epc_pages ~input ~build =
  let trace_pattern, footprint, sites = build epc_pages input in
  Trace.make ~name ~elrange_pages:footprint ~footprint_pages:footprint
    ~seed:(seed_for ~base:seed_base ~input)
    ~sites trace_pattern

let cactuBSSN ~epc_pages ~input =
  small_ws ~name:"cactuBSSN" ~seed_base:111 ~epc_pages ~input
    ~build:(fun epc input ->
      let field = frac epc 0.2 in
      let streams = List.init 3 (fun i -> (i * field, field)) in
      let sweep =
        Pattern.multi_stream ~site:0 ~streams ~events_per_page:8 ~compute:2_200
          ~jitter:0.2
      in
      let hot =
        Pattern.zipf ~site:1 ~base:(3 * field) ~pages:(frac epc 0.05)
          ~events:(scale input 12_000) ~s:1.2 ~compute:1_600 ~jitter:0.3
      in
      ( Pattern.repeat (max 1 (scale input 3))
          (Pattern.weighted_interleave [ (5, sweep); (1, hot) ]),
        (3 * field) + frac epc 0.05,
        [ (0, "grid_sweep"); (1, "constants") ] ))

let imagick ~epc_pages ~input =
  small_ws ~name:"imagick" ~seed_base:112 ~epc_pages ~input
    ~build:(fun epc input ->
      let image = frac epc 0.7 in
      let pass =
        Pattern.sequential ~site:0 ~base:0 ~pages:image ~events_per_page:6
          ~compute:2_600 ~jitter:0.2
      in
      ( Pattern.repeat (max 2 (scale input 4)) pass,
        image,
        [ (0, "convolve_row") ] ))

let leela ~epc_pages ~input =
  small_ws ~name:"leela" ~seed_base:113 ~epc_pages ~input
    ~build:(fun epc input ->
      let arena = frac epc 0.4 in
      let chase =
        Pattern.pointer_chase ~site:0 ~base:0 ~pages:arena
          ~events:(scale input 50_000) ~locality:0.7 ~compute:1_900 ~jitter:0.3
      in
      let hot =
        Pattern.zipf ~site:1 ~base:arena ~pages:(frac epc 0.08)
          ~events:(scale input 20_000) ~s:1.3 ~compute:1_500 ~jitter:0.3
      in
      ( Pattern.weighted_interleave [ (3, chase); (1, hot) ],
        arena + frac epc 0.08,
        [ (0, "uct_tree"); (1, "board_eval") ] ))

let nab ~epc_pages ~input =
  small_ws ~name:"nab" ~seed_base:114 ~epc_pages ~input
    ~build:(fun epc input ->
      let field = frac epc 0.12 in
      let streams = List.init 4 (fun i -> (i * field, field)) in
      let sweep =
        Pattern.multi_stream ~site:0 ~streams ~events_per_page:10 ~compute:2_400
          ~jitter:0.2
      in
      ( Pattern.repeat (max 2 (scale input 5)) sweep,
        4 * field,
        [ (0, "force_sweep") ] ))

let exchange2 ~epc_pages ~input =
  small_ws ~name:"exchange2" ~seed_base:115 ~epc_pages ~input
    ~build:(fun epc input ->
      let board = frac epc 0.15 in
      ( Pattern.zipf ~site:0 ~base:0 ~pages:board ~events:(scale input 70_000)
          ~s:1.1 ~compute:1_700 ~jitter:0.3,
        board,
        [ (0, "board_walk") ] ))

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

(* The one EPC-size check every registry model goes through: without it
   a non-positive size reaches the patterns, which either build a
   meaningless trace or fail with their own, unrelated message. *)
let guard name (model : model) : model =
 fun ~epc_pages ~input ->
  if epc_pages <= 0 then
    invalid_arg
      (Printf.sprintf "workload %s: EPC size must be positive (epc_pages = %d)"
         name epc_pages);
  model ~epc_pages ~input

let unguarded =
  [
    ("microbenchmark", Large_regular, microbenchmark);
    ("bwaves", Large_regular, bwaves);
    ("lbm", Large_regular, lbm);
    ("wrf", Large_regular, wrf);
    ("roms", Large_irregular, roms);
    ("mcf", Large_irregular, mcf);
    ("mcf.2006", Large_irregular, mcf_2006);
    ("deepsjeng", Large_irregular, deepsjeng);
    ("omnetpp", Large_irregular, omnetpp);
    ("xz", Large_irregular, xz);
    ("cactuBSSN", Small_working_set, cactuBSSN);
    ("imagick", Small_working_set, imagick);
    ("leela", Small_working_set, leela);
    ("nab", Small_working_set, nab);
    ("exchange2", Small_working_set, exchange2);
  ]

let all = List.map (fun (n, c, m) -> (n, c, guard n m)) unguarded

let by_name name =
  List.find_map (fun (n, _, m) -> if n = name then Some m else None) all

let category_of name =
  List.find_map (fun (n, c, _) -> if n = name then Some c else None) all

let large_working_set =
  List.filter_map
    (fun (n, c, _) ->
      match c with
      | Large_regular | Large_irregular -> Some n
      | Small_working_set -> None)
    all

let sip_supported name =
  (* Fortran benchmarks (bwaves, roms, wrf) are outside the paper's
     LLVM-based tool; omnetpp defeated it for other reasons (§5.2). *)
  match name with
  | "bwaves" | "roms" | "wrf" | "omnetpp" -> false
  | _ -> List.exists (fun (n, _, _) -> n = name) all
