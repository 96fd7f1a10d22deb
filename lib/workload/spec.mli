(** Synthetic page-level models of the paper's benchmark programs.

    Table 1 of the paper classifies its SPEC CPU2017 selection (plus
    mcf from SPEC CPU2006 and a 1 GB-scan microbenchmark) into three
    classes: small working set; large working set with irregular access;
    large working set with regular access.  Each model below reproduces
    the corresponding page-level behaviour — the only thing the paper's
    schemes can observe — with working-set sizes expressed as multiples of
    the EPC so the fault pressure scales with the simulated EPC size.

    Site structure (how many distinct memory instructions exhibit which
    behaviour) is modelled explicitly because SIP instruments per site;
    the per-benchmark site counts are chosen so the Table 2
    instrumentation-point counts come out in the right neighbourhood. *)

type category = Small_working_set | Large_irregular | Large_regular

val category_name : category -> string

type model = epc_pages:int -> input:Input.t -> Trace.t

(** {1 Microbenchmark and SPEC CPU2017 models} *)

val microbenchmark : model
(** §1/§5: sequential scan of a region ~8x the EPC (stand-in for the 1 GB
    loop against a 96 MB EPC). *)

val bwaves : model
(** Fortran CFD; several concurrently advancing sequential streams
    (Fig. 3a). *)

val lbm : model
(** Lattice-Boltzmann; alternating whole-array sweeps (Fig. 3c). *)

val wrf : model
(** Weather model; phased sweeps over many arrays, one of them strided. *)

val roms : model
(** Ocean model; short sequential bursts at scattered positions — opens
    streams that die immediately, DFP's worst case (Fig. 8). *)

val mcf : model
(** CPU2017 route planning; many sites mixing hot (Class 1) and irregular
    (Class 3) accesses with few Class 2 — the SIP "wash" of §5.2. *)

val mcf_2006 : model
(** CPU2006 variant: the irregular accesses are concentrated in separable
    sites, so SIP instrumentation pays off (+4.9% in the paper). *)

val deepsjeng : model
(** Chess; transposition-table probes — scattered accesses from a
    moderate number of distinct sites (Fig. 3b). *)

val omnetpp : model
(** Discrete-event simulation; heap pointer chasing.  Excluded from SIP
    experiments (the paper's instrumentation tool could not support it). *)

val xz : model
(** Compression; a sequential input scan interleaved with random match
    probes inside a dictionary window. *)

val cactuBSSN : model
val imagick : model
val leela : model
val nab : model
val exchange2 : model

(** {1 Registry} *)

val guard : string -> model -> model
(** [guard name model] is [model] that first rejects a non-positive
    [epc_pages] with [Invalid_argument] naming the workload and the EPC
    size.  Every registry ([all]/[by_name] here, in {!Vision},
    {!Parallel_apps} and {!Synthetic}) hands out guarded models. *)

val all : (string * category * model) list
(** Every model above, guarded, keyed by the paper's benchmark name. *)

val by_name : string -> model option

val category_of : string -> category option

val large_working_set : string list
(** The benchmarks the paper's Fig. 7/Fig. 8 sweeps cover (working set
    exceeding the EPC). *)

val sip_supported : string -> bool
(** Whether the benchmark appears in the paper's SIP experiments: C/C++
    only (bwaves, roms, wrf are Fortran) and omnetpp is excluded by a tool
    limitation (§5.2). *)
