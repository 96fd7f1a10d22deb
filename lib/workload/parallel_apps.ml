let scale input n =
  max 1 (int_of_float (Input.size_factor input *. float_of_int n))

let frac epc r = max 1 (int_of_float (float_of_int epc *. r))

let mt_scan ~threads ~epc_pages ~input =
  if threads <= 0 then invalid_arg "Parallel_apps.mt_scan: threads must be positive";
  let region = frac epc_pages 0.75 in
  let noise_base = threads * region in
  let noise_pages = 3 * epc_pages in
  let worker i =
    let scan =
      Pattern.sequential ~site:(2 * i) ~base:(i * region) ~pages:region
        ~events_per_page:4 ~compute:22_000 ~jitter:0.15
    in
    (* Irregular probes into the shared pool: each one opens a dead-end
       stream entry.  With [threads] workers each interleaving two probes
       per scan event, more new streams arrive between two faults of any
       one scan than a 30-entry shared list can hold — only per-thread
       lists keep the scans alive. *)
    let probes =
      Pattern.uniform_random ~site:(2 * i + 1) ~base:noise_base
        ~pages:noise_pages ~events:(scale input (region * 8)) ~compute:9_000
        ~jitter:0.3
    in
    (i, Pattern.weighted_interleave [ (1, scan); (2, probes) ])
  in
  let pattern = Pattern.parallel (List.init threads worker) in
  let sites =
    List.concat_map
      (fun i ->
        [
          (2 * i, Printf.sprintf "t%d_scan" i);
          ((2 * i) + 1, Printf.sprintf "t%d_probe" i);
        ])
      (List.init threads Fun.id)
  in
  Trace.make
    ~name:(Printf.sprintf "mt-scan(%d)" threads)
    ~elrange_pages:(noise_base + noise_pages)
    ~footprint_pages:(noise_base + noise_pages)
    ~seed:(Input.seed_of input ~base:301)
    ~sites pattern

let mt_zipf ~threads ~epc_pages ~input =
  if threads <= 0 then invalid_arg "Parallel_apps.mt_zipf: threads must be positive";
  let hot = frac epc_pages 0.5 in
  let scratch = frac epc_pages 0.4 in
  let worker i =
    let shared =
      Pattern.zipf ~site:(2 * i) ~base:0 ~pages:hot
        ~events:(scale input 6_000) ~s:1.2 ~compute:15_000 ~jitter:0.3
    in
    let private_scan =
      Pattern.sequential ~site:(2 * i + 1) ~base:(hot + (i * scratch))
        ~pages:scratch ~events_per_page:4 ~compute:18_000 ~jitter:0.2
    in
    (i, Pattern.weighted_interleave [ (2, shared); (1, private_scan) ])
  in
  let pattern = Pattern.parallel (List.init threads worker) in
  let sites =
    List.concat_map
      (fun i ->
        [
          (2 * i, Printf.sprintf "t%d_shared" i);
          ((2 * i) + 1, Printf.sprintf "t%d_scratch" i);
        ])
      (List.init threads Fun.id)
  in
  Trace.make
    ~name:(Printf.sprintf "mt-zipf(%d)" threads)
    ~elrange_pages:(hot + (threads * scratch))
    ~footprint_pages:(hot + (threads * scratch))
    ~seed:(Input.seed_of input ~base:302)
    ~sites pattern

let all =
  List.map
    (fun (n, m) -> (n, Spec.guard n m))
    [ ("mt-scan", mt_scan ~threads:8); ("mt-zipf", mt_zipf ~threads:8) ]

let by_name name =
  List.find_map (fun (n, m) -> if n = name then Some m else None) all
