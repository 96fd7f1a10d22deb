(* Hardware reference numbers: the paper's reported improvement over the
   SGX baseline, in percent, for the (trace, scheme) cells of the
   replay matrix that EXPERIMENTS.md gives a paper figure for (Fig. 8,
   Fig. 10, Fig. 11, Fig. 13).  "~0%" is entered as 0.0 and "0 points"
   (SIP finds nothing to instrument) as 0.0; "negative" and "n/r" cells
   are left out.

   The paper measured a Xeon E3-1240v5 with a 128 MB EPC; the model runs
   at 2048 EPC pages on held-back ref inputs (ref1 upward), so this is a
   comparison of shape, not of hardware.  Only one hybrid cell has a
   hardware number (mixed-blood, +7.1%) and no online cell has one: the
   simulated [hybrid] and [online] speedups are unvalidated. *)

let cells =
  [
    (* Fig. 8: DFP and DFP-stop. *)
    ("microbenchmark", "dfp", 18.6);
    ("lbm", "dfp", 13.3);
    ("roms", "dfp", -42.0);
    ("roms", "dfp_stop", -0.1);
    ("deepsjeng", "dfp", -34.0);
    ("deepsjeng", "dfp_stop", 0.0);
    (* Fig. 10: SIP. *)
    ("deepsjeng", "sip", 9.0);
    ("mcf.2006", "sip", 4.9);
    ("mcf", "sip", 0.0);
    ("lbm", "sip", 0.0);
    ("microbenchmark", "sip", 0.0);
    (* Fig. 11: SIFT and MSER. *)
    ("SIFT", "dfp", 9.5);
    ("SIFT", "sip", 0.0);
    ("MSER", "sip", 3.0);
    (* Fig. 13: mixed-blood. *)
    ("mixed-blood", "sip", 1.6);
    ("mixed-blood", "dfp", 6.0);
    ("mixed-blood", "hybrid", 7.1);
  ]
