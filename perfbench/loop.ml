(* Running ops: host timing, failure accounting and the determinism
   check.  An op fails when it raises, when its layer's checker reports
   a violation, or when its simulated outputs differ from the first time
   the same op ran in this process. *)

type tally = {
  mutable times_ms : (int * float) list;
      (** Start (monotonic ns) and raw host time of each timed op. *)
  mutable events : int;  (** Trace events of the timed ops. *)
  mutable attempted : int;
  mutable failed : int;
  mutable next_id : int;
  first_keys : (string, int) Hashtbl.t;
  verbose : bool;  (** Report each failure on stderr. *)
  mutable digest : int;
      (** Over the first outcome of every op run with [~digest:true]. *)
}

let tally ?(verbose = true) () =
  { times_ms = []; events = 0; attempted = 0; failed = 0; next_id = 0;
    first_keys = Hashtbl.create 128; verbose; digest = 0 }

let fail t label why =
  t.failed <- t.failed + 1;
  if t.verbose then Printf.eprintf "op %s failed: %s\n%!" label why

(* Run one op and return its host time in ms, with {!Calib} samples
   taken around it.  [timed] ops contribute to the host-time figures,
   untimed ones (simulated-metric cells run after the timed loop) only
   to the failure count and the digest.  The digest covers a fixed set
   of ops (the first round and the cells after the loop), never a number
   of ops that depends on host speed. *)
let run t ~timed ~digest (op : Workloads.op) =
  Span.set_op t.next_id;
  t.next_id <- t.next_id + 1;
  t.attempted <- t.attempted + 1;
  Calib.tick ();
  let t0 = Span.now_ns () in
  let result =
    try Ok (Span.with_ "op" op.run) with e -> Error (Printexc.to_string e)
  in
  let ms = float_of_int (Span.now_ns () - t0) /. 1e6 in
  Span.set_op (-1);
  Calib.tick ();
  if timed then t.times_ms <- (t0, ms) :: t.times_ms;
  (match result with
  | Error msg -> fail t op.label ("exception " ^ msg)
  | Ok o -> (
    if timed then t.events <- t.events + o.events;
    if o.problems <> [] then fail t op.label (String.concat "; " o.problems)
    else
      match Hashtbl.find_opt t.first_keys op.label with
      | None ->
        Hashtbl.replace t.first_keys op.label o.key;
        if digest then t.digest <- Workloads.mix t.digest o.key
      | Some k when k <> o.key ->
        fail t op.label "simulated outputs differ from its first run"
      | Some _ -> ()));
  ms
