(** Composable page-access pattern generators.

    Every synthetic benchmark model is assembled from these blueprints.
    A pattern is a first-order description: the constructors below
    validate their arguments and build a tree of leaves and combinators
    that holds no generator state.  {!instantiate} turns a pattern and a
    PRNG into a pull cursor, [next : slot -> bool], that writes the next
    access into a caller-owned mutable {!slot} and returns [false] once
    the pattern is exhausted.  Leaves keep their position in
    per-instance refs and combinators pass the slot down, so pulling an
    event allocates nothing.  A cursor draws from its PRNG as it is
    pulled and is single-consumption: instantiate again from the same
    seed to replay ({!Trace} does exactly that).

    {b Draw-order contract.}  Every stream is a pure function of the
    pattern and the seed, fixed by the order in which the PRNG is drawn:
    - a leaf draws its page (if random) and then its jittered compute
      for each event; {!pointer_chase} draws its start page and {!bursty}
      its first run when instantiated;
    - {!seq_list} instantiates its first phase with the list and each
      later phase only when the previous one is exhausted;
    - {!weighted_interleave} instantiates all its children, in list
      order, when it is itself instantiated; it finds out a child is
      exhausted only by picking it, then drops the child's weight and
      redraws;
    - {!take} never pulls its child past [n] events;
    - an exhausted cursor draws nothing.

    The leaf constructors mirror the memory behaviours the paper observes
    at page level (Fig. 3 and §4.4): sequential and strided sweeps,
    interleaved multi-stream scans, uniform/zipf randomness, pointer
    chasing, and the "same instruction mixes Class 1 and Class 3
    accesses" behaviour that makes mcf a wash for SIP (§5.2). *)

type t = private
  | Sequential of {
      site : int;
      base : int;
      pages : int;
      events_per_page : int;
      compute : int;
      jitter : float;
    }
  | Sequential_desc of {
      site : int;
      base : int;
      pages : int;
      events_per_page : int;
      compute : int;
      jitter : float;
    }
  | Strided of {
      site : int;
      base : int;
      pages : int;
      stride : int;
      events_per_page : int;
      compute : int;
      jitter : float;
    }
  | Multi_stream of {
      site : int;
      streams : (int * int) list;
      events_per_page : int;
      compute : int;
      jitter : float;
    }
  | Uniform_random of {
      site : int;
      base : int;
      pages : int;
      events : int;
      compute : int;
      jitter : float;
    }
  | Zipf of {
      site : int;
      base : int;
      pages : int;
      events : int;
      s : float;
      compute : int;
      jitter : float;
    }
  | Pointer_chase of {
      site : int;
      base : int;
      pages : int;
      events : int;
      locality : float;
      compute : int;
      jitter : float;
    }
  | Bursty of {
      site : int;
      base : int;
      pages : int;
      events : int;
      run_min : int;
      run_max : int;
      events_per_page : int;
      compute : int;
      jitter : float;
    }
  | Mixed_site of {
      site : int;
      hot_base : int;
      hot_pages : int;
      cold_base : int;
      cold_pages : int;
      events : int;
      irregular_ratio : float;
      compute : int;
      jitter : float;
    }
  | Of_events of Access.t list
  | Seq_list of t list
  | Weighted_interleave of (int * t) list
  | Take of int * t
  | On_thread of int * t
(** The blueprint tree, readable but only buildable through the
    validating constructors below. *)

(** {1 Cursors} *)

type slot = {
  mutable site : int;
  mutable vpage : int;
  mutable compute : int;
  mutable thread : int;
}
(** The one mutable record a consumer hands to a cursor; each successful
    pull overwrites all four fields. *)

val slot : unit -> slot

val instantiate : t -> Repro_util.Prng.t -> slot -> bool
(** [instantiate t prng] is a fresh cursor over [t] drawing from [prng]
    (instantiation itself may draw; see the contract above). *)

val run : t -> Repro_util.Prng.t -> Access.t Seq.t
(** The cursor as a single-consumption [Seq], one [Access.t] per event:
    a view for consumers that need a sequence, not a second generator. *)

(** {1 Leaves}

    All leaves take [site] (the issuing instruction's identity), a mean
    [compute] cycle count preceding each access, and a relative [jitter]
    ([0.] = constant, [0.3] = ±30% uniform). *)

val sequential :
  site:int -> base:int -> pages:int -> events_per_page:int -> compute:int ->
  jitter:float -> t
(** Ascending page-by-page sweep of [\[base, base+pages)], touching each
    page [events_per_page] times before moving on. *)

val sequential_desc :
  site:int -> base:int -> pages:int -> events_per_page:int -> compute:int ->
  jitter:float -> t
(** Descending sweep from [base+pages-1] down to [base]; exercises the
    predictor's backward-stream detection. *)

val strided :
  site:int -> base:int -> pages:int -> stride:int -> events_per_page:int ->
  compute:int -> jitter:float -> t
(** Column-major sweep: consecutive accesses are [stride] pages apart
    ([stride >= 2] defeats next-page stream detection — the roms/wrf
    trap for DFP).

    [pages = 0] is not an empty sweep: it emits exactly one access, to
    [base], whatever [stride] and [events_per_page] are.  No registry
    model reaches this case: {!Spec} floors its page counts at 1. *)

val multi_stream :
  site:int -> streams:(int * int) list -> events_per_page:int -> compute:int ->
  jitter:float -> t
(** Several concurrent ascending sweeps ([(base, pages)] each), randomly
    interleaved page-by-page — the bwaves shape; exercises the
    multiple-stream predictor's LRU list. *)

val uniform_random :
  site:int -> base:int -> pages:int -> events:int -> compute:int ->
  jitter:float -> t

val zipf :
  site:int -> base:int -> pages:int -> events:int -> s:float -> compute:int ->
  jitter:float -> t
(** Skewed random accesses; larger [s] concentrates on a hot head. *)

val pointer_chase :
  site:int -> base:int -> pages:int -> events:int -> locality:float ->
  compute:int -> jitter:float -> t
(** Random walk: with probability [locality] the next access stays within
    ±2 pages of the current one, otherwise it jumps uniformly — the
    deepsjeng/omnetpp shape. *)

val bursty :
  site:int -> base:int -> pages:int -> events:int -> run_min:int -> run_max:int ->
  events_per_page:int -> compute:int -> jitter:float -> t
(** Short sequential runs ([run_min..run_max] consecutive pages) starting
    at uniformly random positions.  Each adjacent-page fault pair looks
    like the start of a stream, so DFP keeps opening streams that die
    immediately — the misprediction generator behind the roms/deepsjeng
    pathology of Fig. 8. *)

val mixed_site :
  site:int -> hot_base:int -> hot_pages:int -> cold_base:int -> cold_pages:int ->
  events:int -> irregular_ratio:float -> compute:int -> jitter:float -> t
(** A single site that issues mostly hot-set (Class 1) accesses but with
    probability [irregular_ratio] touches a cold page (Class 3) — the mcf
    dilemma of §5.2. *)

(** {1 Combinators} *)

val seq_list : t list -> t
(** Run the patterns one after another (program phases). *)

val interleave : t list -> t
(** Random merge: each step draws the next event from a uniformly chosen
    still-alive sub-pattern. *)

val weighted_interleave : (int * t) list -> t
(** Random merge with relative weights; a pick costs O(log k) in the
    number of children.
    @raise Invalid_argument if a weight is not positive. *)

val repeat : int -> t -> t
(** The same blueprint [n] times in sequence (fresh draws each round).
    @raise Invalid_argument if [n < 0]. *)

val take : int -> t -> t
(** At most the first [n] events.
    @raise Invalid_argument if [n < 0]. *)

val on_thread : int -> t -> t
(** Stamp every event of the sub-pattern with a thread id (leaves emit
    thread 0 by default). *)

val parallel : (int * t) list -> t
(** [(thread, pattern)] pairs randomly merged — a multi-threaded enclave
    whose threads each run their own pattern.  Equivalent to
    [interleave] of [on_thread]-stamped sub-patterns. *)

val of_events : Access.t list -> t
(** A pattern that replays a fixed event list (used when loading recorded
    traces); draws nothing from the PRNG. *)

val empty : t
