(* Spans around the benchmark's calls into the simulator's layers.

   A span records its layer name, start and end (monotonic ns), the span
   it ran inside, the op it belongs to, the words the OCaml heap
   allocated while it was open, and the trace events it handled.  Spans
   stay in memory until the run ends.  When recording is off, [with_]
   is a plain call: the untraced run pays nothing but one branch. *)

type t = {
  name : string;
  op : int;  (** Id shared by every span of one op; -1 during set-up. *)
  parent : int;  (** Index of the enclosing span; -1 at top level. *)
  t0 : int;
  mutable t1 : int;
  mutable words : float;
  mutable events : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated by the program so far: minor + major - promoted, so a
   word promoted out of the minor heap is counted once. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let recording = ref false
let current_op = ref (-1)
let spans : t list ref = ref []
let count = ref 0
let stack : int list ref = ref []

let set_op id = current_op := id

(* [events] may depend on the result (e.g. a compiled trace's length). *)
let with_ ?(events = fun _ -> 0) name f =
  if not !recording then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let id = !count in
    incr count;
    let w0 = allocated_words () in
    let s =
      { name; op = !current_op; parent; t0 = now_ns (); t1 = 0; words = 0.0;
        events = 0 }
    in
    spans := s :: !spans;
    stack := id :: !stack;
    let finish () =
      s.t1 <- now_ns ();
      s.words <- allocated_words () -. w0;
      stack := List.tl !stack
    in
    match f () with
    | v ->
      finish ();
      s.events <- events v;
      v
    | exception e ->
      finish ();
      raise e
  end

let all () = Array.of_list (List.rev !spans)

(* Per layer name: calls, total ns, self ns (duration minus the time its
   direct children cover; children of one parent never overlap in a
   single-threaded run), self words and events. *)
type layer = {
  calls : int;
  total_ns : int;
  self_ns : int;
  self_words : float;
  l_events : int;
}

let layers () =
  let a = all () in
  let n = Array.length a in
  let child_ns = Array.make n 0 and child_words = Array.make n 0.0 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then begin
        child_ns.(s.parent) <- child_ns.(s.parent) + (s.t1 - s.t0);
        child_words.(s.parent) <- child_words.(s.parent) +. s.words
      end)
    a;
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      let prev =
        match Hashtbl.find_opt tbl s.name with
        | Some l -> l
        | None ->
          { calls = 0; total_ns = 0; self_ns = 0; self_words = 0.0; l_events = 0 }
      in
      Hashtbl.replace tbl s.name
        {
          calls = prev.calls + 1;
          total_ns = prev.total_ns + (s.t1 - s.t0);
          self_ns = prev.self_ns + (s.t1 - s.t0 - child_ns.(i));
          self_words = prev.self_words +. (s.words -. child_words.(i));
          l_events = prev.l_events + s.events;
        })
    a;
  List.sort (fun (x, _) (y, _) -> compare x y)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* One JSON object per span, in start order, so the file is readable
   with any JSON-lines tool. *)
let write path =
  let oc = open_out path in
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"words\":%.0f,\"events\":%d}\n"
        i s.name s.op s.parent s.t0 s.t1 s.words s.events)
    (all ());
  close_out oc
