(* Checks of the benchmark's own arithmetic and bookkeeping, run before
   every measurement (and alone with --self-test).  Returns the process
   exit code: 0 when every check holds.  That every printed metric is
   declared in BENCHMARK.json with its unit and direction is checked by
   run.py on every result. *)

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "self-test failed: %s\n%!" name
  end

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true
let close a b = abs_float (a -. b) <= 1e-12 *. Float.max 1.0 (abs_float b)

(* 1..n in a scrambled order, so the rules cannot lean on sorted input. *)
let samples n =
  let a = Array.init n (fun i -> float_of_int (i + 1)) in
  let rng = Random.State.make [| n |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let beyond a v = Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 a

let tail_rule () =
  expect "tail of 100" (Arith.tail (samples 100) = (90.0, 90.0));
  expect "tail of 60" (Arith.tail (samples 60) = (83.3, 50.0));
  expect "tail of 20" (Arith.tail (samples 20) = (50.0, 10.0));
  expect "tail of 19 falls back to the median" (Arith.tail (samples 19) = (50.0, 10.0));
  expect "tail of 20000 caps at p99.9" (Arith.tail (samples 20000) = (99.9, 19980.0));
  (* For every size: at least ten samples lie beyond the reported value,
     and one tenth of a percentile higher would leave fewer. *)
  for n = 20 to 600 do
    let a = samples n in
    let p, v = Arith.tail a in
    let tenths = int_of_float (Float.round (p *. 10.0)) in
    expect (Printf.sprintf "tail of %d keeps ten beyond" n) (beyond a v >= 10);
    if tenths < 999 then
      expect (Printf.sprintf "tail of %d is the highest" n)
        (n - (((tenths + 1) * n) + 999) / 1000 < 10)
  done

let means () =
  expect "median odd" (Arith.median [| 3.0; 1.0; 2.0 |] = 2.0);
  expect "median even" (Arith.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  expect "geomean 1,4" (close (Arith.geomean [ 1.0; 4.0 ]) 2.0);
  expect "geomean 2,8,0.5" (close (Arith.geomean [ 2.0; 8.0; 0.5 ]) 2.0);
  expect "geomean of one" (close (Arith.geomean [ 1.25 ]) 1.25);
  expect "geomean rejects zero" (raises (fun () -> Arith.geomean [ 1.0; 0.0 ]));
  expect "geomean rejects empty" (raises (fun () -> Arith.geomean []))

(* An op whose result breaks the cycle identity must count as failed, as
   must one that raises and one whose outputs change on a rerun. *)
let failure_accounting () =
  let trace =
    (Workloads.model "best-case") ~epc_pages:16 ~input:Workload.Input.Train
  in
  let r = Sim.Runner.run ~scheme:Preload.Scheme.Baseline trace in
  let op label result =
    { Workloads.label;
      run =
        (fun () ->
          let problems =
            Workloads.problems_of (Sim.Validate.check (result ()))
          in
          { Workloads.events = 1; problems; key = (result ()).cycles }) }
  in
  let t = Loop.tally ~verbose:false () in
  let go op = ignore (Loop.run t ~timed:true ~digest:true op) in
  go (op "good" (fun () -> r));
  expect "a valid run passes" (t.failed = 0);
  go (op "corrupt" (fun () -> { r with cycles = r.cycles + 1 }));
  expect "an injected validation failure counts" (t.failed = 1);
  go { Workloads.label = "raises"; run = (fun () -> failwith "injected") };
  expect "an exception counts" (t.failed = 2);
  go (op "good" (fun () -> r));
  expect "an identical rerun passes" (t.failed = 2);
  let t2 = Loop.tally ~verbose:false () in
  let go2 key =
    ignore
      (Loop.run t2 ~timed:true ~digest:true
         { Workloads.label = "x";
           run = (fun () -> { events = 1; problems = []; key }) })
  in
  go2 1;
  go2 2;
  expect "a changed rerun counts" (t2.failed = 1);
  expect "every op is attempted" (t.attempted = 4 && t2.attempted = 2)

let run () =
  failures := 0;
  tail_rule ();
  means ();
  failure_accounting ();
  if !failures = 0 then 0 else 1
