(** A growable set of page numbers, one bit per page: the distinct-page
    counter behind {!Workload.Trace_arena}'s packer and
    {!Workload.Trace.count_distinct_pages}.

    The bitmap starts small and doubles to cover the highest page added,
    so it costs [max page / 8] bytes — the same bound as the enclave's
    own per-ELRANGE page table — and an {!add} allocates nothing unless
    it grows the bitmap. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** @raise Invalid_argument on a negative page. *)

val cardinal : t -> int
(** Distinct pages added so far; O(1). *)
