let scale input n =
  max 1 (int_of_float (Input.size_factor input *. float_of_int n))

let oram ~epc_pages ~input =
  (* Every access goes to a uniformly random page of a 3x-EPC pool: the
     page-level view of an ORAM-protected application.  Different inputs
     (seeds) give entirely different sequences, as §3.1 warns. *)
  let pool = 3 * epc_pages in
  Trace.make ~name:"oram" ~elrange_pages:pool ~footprint_pages:pool
    ~seed:(Input.seed_of input ~base:401)
    ~sites:[ (0, "oram_access") ]
    (Pattern.uniform_random ~site:0 ~base:0 ~pages:pool
       ~events:(scale input 60_000) ~compute:8_000 ~jitter:0.2)

let adversarial_streams ~epc_pages ~input =
  (* Pairs of adjacent pages at random positions, never a third: every
     pair opens a stream whose predictions are all wasted. *)
  let pool = 3 * epc_pages in
  Trace.make ~name:"adversarial-streams" ~elrange_pages:pool
    ~footprint_pages:pool
    ~seed:(Input.seed_of input ~base:402)
    ~sites:[ (0, "pair_walk") ]
    (Pattern.bursty ~site:0 ~base:0 ~pages:pool ~events:(scale input 50_000)
       ~run_min:2 ~run_max:2 ~events_per_page:1 ~compute:2_000 ~jitter:0.1)

let best_case ~epc_pages ~input =
  (* One long scan with compute gaps larger than the load time: DFP's
     steady state of 1 fault per LOADLENGTH+1 pages. *)
  let pages = 6 * epc_pages in
  Trace.make ~name:"best-case" ~elrange_pages:pages ~footprint_pages:pages
    ~seed:(Input.seed_of input ~base:403)
    ~sites:[ (0, "long_scan") ]
    (Pattern.sequential ~site:0 ~base:0 ~pages
       ~events_per_page:(max 1 (scale input 2))
       ~compute:50_000 ~jitter:0.0)

let all =
  List.map
    (fun (n, m) -> (n, Spec.guard n m))
    [
      ("oram", oram);
      ("adversarial-streams", adversarial_streams);
      ("best-case", best_case);
    ]

let by_name name =
  List.find_map (fun (n, m) -> if n = name then Some m else None) all
