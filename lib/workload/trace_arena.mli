(** Compiled trace arenas: the allocation-free replay path.

    {!compile} pulls a {!Trace.t}'s pattern cursor once, straight into
    packed [Bigarray] int columns (site, vpage, compute, thread), and
    hands back an arena whose {!iter} replays it as a tight index
    loop — no PRNG work, no per-access record allocation.  Arenas are
    memoised process-wide (keyed on the trace's identity: header fields,
    sites, and a fingerprint of the stream's first accesses) and, when
    [SGX_PRELOAD_ARENA_CACHE] names a directory, persisted through
    {!Trace_codec} so forked workers and repeated CLI invocations decode
    instead of regenerating.  Replays from an arena — memoised, decoded
    cold or decoded warm — are bit-identical to [Trace.events].

    Compiling also deposits the stream's length and distinct-page count
    on the trace ({!Trace.note_stats}), making [Trace.length] and
    [Trace.count_distinct_pages] O(1) afterwards. *)

type t

val compile : Trace.t -> t
(** Compile (or fetch the memoised / cached compilation of) a trace.
    A cache file that is truncated, corrupt, version-mismatched or for a
    different trace is treated as a miss and regenerated, never an
    error. *)

val of_seq : Trace.t -> Access.t Seq.t -> t
(** Materialise an arbitrary access stream (e.g. a fault plan's
    perturbed view of [trace]'s stream) into a fresh arena under
    [trace]'s header.  The result is never memoised, never persisted,
    never deposited on [trace] through {!Trace.note_stats}, and not
    counted by {!compilations}: [trace]'s own statistics keep describing
    its own stream. *)

val length : t -> int
val distinct_pages : t -> int

(** {1 Replay} *)

val iter :
  t -> f:(site:int -> vpage:int -> compute:int -> thread:int -> unit) -> unit
(** In-order replay; the callback receives unboxed ints, so the loop
    allocates nothing per access. *)

val site : t -> int -> int
val vpage : t -> int -> int
val compute : t -> int -> int
val thread : t -> int -> int
(** Indexed column access (bounds-checked). *)

val get : t -> int -> Access.t
(** Indexed access as a record (allocates; for spot queries). *)

val to_seq : t -> Access.t Seq.t
(** The arena as a sequence — drop-in for [Trace.events] where a [Seq]
    is structurally required (e.g. fault-plan trace perturbation). *)

(** {1 Cache plumbing} *)

val cache_env_var : string
(** ["SGX_PRELOAD_ARENA_CACHE"]: directory for the on-disk cache (created
    on first store).  Unset or empty disables persistence; the in-process
    memo always applies. *)

val cache_dir : unit -> string option

val cache_path : Trace.t -> string option
(** Where this trace's compilation lives (or would live) on disk, when
    the cache is enabled.  Costs a fingerprint prefix replay. *)

val compilations : unit -> int
(** Number of full stream materialisations this process has performed —
    memo and disk-cache hits do not count, nor do {!of_seq} arenas.
    Tests pin "one compilation per trace" on this. *)

val clear_memo : unit -> unit
(** Drop the in-process memo (tests use this to force the disk path). *)
