let scale input n =
  max 1 (int_of_float (Input.size_factor input *. float_of_int n))

let frac epc r = max 1 (int_of_float (float_of_int epc *. r))

let sift ~epc_pages ~input =
  (* Feature extraction: load the image, then build and sweep a Gaussian
     pyramid — level after level of sequential passes with heavy
     per-page convolution compute.  Everything is regular, so SIP finds
     nothing to instrument and DFP streams run long. *)
  let image = 2 * epc_pages in
  let load =
    Pattern.sequential ~site:0 ~base:0 ~pages:image ~events_per_page:5
      ~compute:40_000 ~jitter:0.1
  in
  let levels = [ (1.0, 1); (0.5, 2); (0.25, 3); (0.125, 4) ] in
  let base_of_level l = image + (image * 2 * (l - 1) / 8) in
  let pyramid =
    List.map
      (fun (ratio, site) ->
        Pattern.sequential ~site ~base:(base_of_level site)
          ~pages:(max 1 (int_of_float (float_of_int image *. ratio /. 2.)))
          ~events_per_page:8 ~compute:74_000 ~jitter:0.2)
      levels
  in
  let keypoints =
    Pattern.zipf ~site:5 ~base:0 ~pages:(frac epc_pages 0.3)
      ~events:(scale input 15_000) ~s:1.2 ~compute:20_000 ~jitter:0.3
  in
  let pattern = Pattern.seq_list ((load :: pyramid) @ [ keypoints ]) in
  let footprint = base_of_level 4 + (image / 16) + 1 in
  Trace.make ~name:"SIFT" ~elrange_pages:footprint ~footprint_pages:footprint
    ~seed:(Input.seed_of input ~base:201)
    ~sites:
      [
        (0, "image_load"); (1, "pyramid_l1"); (2, "pyramid_l2");
        (3, "pyramid_l3"); (4, "pyramid_l4"); (5, "keypoint_refine");
      ]
    (Pattern.repeat (max 1 (scale input 1)) pattern)

let mser ~epc_pages ~input =
  (* Blob detection: a short image pass, then union-find component
     merging — pointer chasing over pixels and component records from
     many distinct source sites. *)
  let image = frac epc_pages 1.5 in
  let comp_base = image in
  let comp_pages = frac epc_pages 1.2 in
  let load =
    Pattern.sequential ~site:0 ~base:0 ~pages:image ~events_per_page:3
      ~compute:12_000 ~jitter:0.1
  in
  let n_union = 54 in
  let union_sites =
    List.init n_union (fun i ->
        ( 2,
          Pattern.uniform_random ~site:(1 + i) ~base:comp_base ~pages:comp_pages
            ~events:(scale input 1_000) ~compute:60_000 ~jitter:0.3 ))
  in
  let roots =
    List.init 6 (fun i ->
        ( 2,
          Pattern.zipf ~site:(1 + n_union + i) ~base:comp_base
            ~pages:(frac epc_pages 0.1) ~events:(scale input 2_500) ~s:1.3
            ~compute:20_000 ~jitter:0.3 ))
  in
  let pattern =
    Pattern.seq_list
      [ load; Pattern.weighted_interleave (union_sites @ roots) ]
  in
  let sites =
    ((0, "image_load")
    :: List.init n_union (fun i -> (1 + i, Printf.sprintf "union_find%d" i)))
    @ List.init 6 (fun i -> (1 + n_union + i, Printf.sprintf "root_cache%d" i))
  in
  Trace.make ~name:"MSER"
    ~elrange_pages:(comp_base + comp_pages)
    ~footprint_pages:(comp_base + comp_pages)
    ~seed:(Input.seed_of input ~base:202)
    ~sites pattern

let mixed_blood ~epc_pages ~input =
  (* §5.4: sequentially scan an image, then run MSER on it — roughly
     equal shares of Class 2 and Class 3 accesses, so DFP and SIP each
     improve their half and the hybrid beats both. *)
  let image = frac epc_pages 2.5 in
  let comp_base = image in
  let comp_pages = frac epc_pages 1.5 in
  let scan =
    Pattern.sequential ~site:0 ~base:0 ~pages:image ~events_per_page:7
      ~compute:40_000 ~jitter:0.15
  in
  let n_union = 30 in
  let union_sites =
    List.init n_union (fun i ->
        ( 2,
          Pattern.uniform_random ~site:(1 + i) ~base:comp_base ~pages:comp_pages
            ~events:(scale input 700) ~compute:80_000 ~jitter:0.3 ))
  in
  let roots =
    List.init 4 (fun i ->
        ( 2,
          Pattern.zipf ~site:(1 + n_union + i) ~base:comp_base
            ~pages:(frac epc_pages 0.08) ~events:(scale input 2_000) ~s:1.3
            ~compute:20_000 ~jitter:0.3 ))
  in
  let pattern =
    Pattern.seq_list
      [ scan; Pattern.weighted_interleave (union_sites @ roots) ]
  in
  let sites =
    ((0, "image_scan")
    :: List.init n_union (fun i -> (1 + i, Printf.sprintf "blob_union%d" i)))
    @ List.init 4 (fun i -> (1 + n_union + i, Printf.sprintf "blob_root%d" i))
  in
  Trace.make ~name:"mixed-blood"
    ~elrange_pages:(comp_base + comp_pages)
    ~footprint_pages:(comp_base + comp_pages)
    ~seed:(Input.seed_of input ~base:203)
    ~sites pattern

let all =
  List.map
    (fun (n, m) -> (n, Spec.guard n m))
    [ ("SIFT", sift); ("MSER", mser); ("mixed-blood", mixed_blood) ]

let by_name name =
  List.find_map (fun (n, m) -> if n = name then Some m else None) all
