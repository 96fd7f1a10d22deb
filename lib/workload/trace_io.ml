let save_trace (trace : Trace.t) ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "# sgx-preload trace v1\n";
      Printf.fprintf oc "name %s\n" trace.name;
      Printf.fprintf oc "elrange %d\n" trace.elrange_pages;
      Printf.fprintf oc "footprint %d\n" trace.footprint_pages;
      List.iter
        (fun (site, label) -> Printf.fprintf oc "site %d %s\n" site label)
        trace.sites;
      Seq.iter
        (fun (a : Access.t) ->
          Printf.fprintf oc "a %d %d %d %d\n" a.site a.vpage a.compute a.thread)
        (Trace.events trace))

let fail path line msg =
  failwith (Printf.sprintf "Trace_io.load_trace: %s, line %d: %s" path line msg)

let load_trace ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lineno = ref 0 in
      let read () =
        incr lineno;
        input_line ic
      in
      (* [fail] itself raises [Failure], so parse errors must never flow
         through a [Failure _] catch-all — it would rewrite every message
         into the generic one.  Decode ints explicitly instead. *)
      let int_of field s =
        match int_of_string_opt s with
        | Some n -> n
        | None ->
          fail path !lineno (Printf.sprintf "malformed %s field %S" field s)
      in
      let nat_of field s =
        let n = int_of field s in
        if n < 0 then fail path !lineno (Printf.sprintf "negative %s %d" field n);
        n
      in
      let header = try read () with End_of_file -> fail path 1 "empty file" in
      if header <> "# sgx-preload trace v1" then
        fail path !lineno "unrecognised header";
      let name = ref "" and elrange = ref 0 and footprint = ref 0 in
      let sites = ref [] in
      let accesses = ref [] in
      (try
         while true do
           let line = read () in
           match String.split_on_char ' ' line with
           | "name" :: rest -> name := String.concat " " rest
           | [ "elrange"; n ] -> elrange := int_of "elrange" n
           | [ "footprint"; n ] -> footprint := int_of "footprint" n
           | "site" :: id :: label ->
             sites := (int_of "site" id, String.concat " " label) :: !sites
           | [ "a"; site; vpage; compute; thread ] ->
             accesses :=
               Access.make ~site:(int_of "site" site)
                 ~vpage:(nat_of "vpage" vpage)
                 ~compute:(nat_of "compute" compute)
                 ~thread:(nat_of "thread" thread) ()
               :: !accesses
           | [ "" ] -> ()
           | _ -> fail path !lineno "unrecognised line"
         done
       with End_of_file -> ());
      if !elrange <= 0 then fail path !lineno "missing or invalid elrange";
      if !footprint <= 0 then fail path !lineno "missing or invalid footprint";
      if !footprint > !elrange then
        fail path !lineno
          (Printf.sprintf "footprint %d exceeds elrange %d" !footprint !elrange);
      (match List.find_opt (fun (a : Access.t) -> a.vpage >= !elrange) !accesses with
      | Some a ->
        failwith
          (Printf.sprintf "Trace_io.load_trace: %s: page %d outside elrange %d"
             path a.vpage !elrange)
      | None -> ());
      Trace.make ~name:!name ~elrange_pages:!elrange ~footprint_pages:!footprint
        ~seed:0 ~sites:(List.rev !sites)
        (Pattern.of_events (List.rev !accesses)))
