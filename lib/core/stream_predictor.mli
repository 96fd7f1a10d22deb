(** Algorithm 1: the multiple-stream page-fault predictor.

    A fixed-length LRU list of streams; each entry records the stream's
    tail page number ([stpn]).  On a fault with new page number [npn]:

    - if [npn] falls inside an entry's {e still-pending} preload window,
      the application skipped ahead of the loader: that preloading is
      aborted and [npn] restarts the stream (the paper's
      page(5)-while-loading-page(3) example in §4.1);
    - else if [npn] continues some entry (within [LOADLENGTH]+1 pages of
      its tail in the stream's direction — in steady state the preloaded
      pages never fault, so a live stream's next fault lands exactly
      [LOADLENGTH]+1 past the tail), the tail becomes [npn], the entry
      moves to the list head, and the following [LOADLENGTH] pages are
      predicted for preloading;
    - otherwise the least-recently-used entry is replaced by a fresh
      stream starting at [npn].

    Streams acquire a direction (ascending or descending) from their
    second sequential fault; until then both neighbours count as
    sequential. *)

type stream = {
  mutable stpn : int;  (** Stream tail page number: the last faulted page. *)
  mutable dir : int;  (** +1 ascending, -1 descending, 0 undetermined. *)
  mutable pending : int list;
      (** Pages this stream asked to preload that are believed still
          queued; used for the within-window abort check.  Maintained by
          the caller via {!set_pending}. *)
}

type reaction =
  | Extend  (** Sequential hit: preload the {!predictions}. *)
  | Restart_within
      (** The fault landed inside the {!head} stream's pending window:
          abort the {!aborted} preloads; the stream restarts there. *)
  | New_stream
      (** Irregular fault: a fresh stream heads the list; abort the
          {!aborted} preloads of the LRU entry it replaced, if any. *)

type t

val create :
  ?detect_backward:bool -> stream_list_length:int -> load_length:int -> unit -> t
(** [stream_list_length] is the paper's tuning knob of Fig. 6 (default
    sweet spot 30); [load_length] the preload distance of Fig. 7 (default
    sweet spot 4).  [detect_backward] (default [true]) lets streams run
    descending. *)

val on_fault : t -> int -> reaction
(** Feed one fault (page number only — all the OS can see).  Allocates
    nothing once the list is full. *)

val head : t -> stream
(** The MRU entry: after {!on_fault}, the stream the fault acted on.
    Replaced entries are recycled, so hold a stream only until the next
    fault. *)

val aborted : t -> int list
(** The pending preloads the last fault orphaned. *)

val predictions : t -> int list
(** The [LOADLENGTH] non-negative pages past the {!head} stream's tail in
    its direction, nearest first. *)

val covers : t -> int -> bool
(** Is [page] within [LOADLENGTH] pages past some entry's tail, in its
    direction (either way while it has none)?  The SIP classifier's
    Class-2 test, scanned in place. *)

val set_pending : stream -> int list -> unit

val streams : t -> stream list
(** Current entries, most recently used first (inspection/testing). *)

val reset : t -> unit
