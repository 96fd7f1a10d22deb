(** An exact LRU set of page numbers: the most recently touched
    [capacity] distinct pages are in.  The one recency proxy the
    simulator shares: the {!Workload.Trace_stats} miss-ratio curve, the
    SIP profiler's and the online classifier's Class-1 residency test
    (§4.4), and the Markov prefetcher's table bound.

    An open-addressed page -> slot index (linear probing, backward-shift
    deletion) plus an intrusive doubly-linked recency list over the
    slots, all [int array]s: a touch is O(1) and allocates nothing.
    Storage doubles with the distinct pages held, up to [capacity]; it
    is never preallocated to [capacity]. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val mem : t -> int -> bool
(** Membership, without refreshing recency. *)

val touch : t -> int -> bool
(** Refresh (or insert) a page; returns whether it was already in.
    Inserting into a full set evicts the least recently touched page. *)

val size : t -> int
val clear : t -> unit

val to_list : t -> int list
(** Most recently touched first (inspection, tests). *)
