(* Data placement — the paper's motivating scenario (Section 1).

   Operations (jobs) each need one database (class) stored locally on the
   server (machine) that executes them. Disk space allows only [c] databases
   per server, so a server can only run operations from at most c classes.
   We balance query load across servers while respecting storage.

   Non-preemptive: a query runs on one server start-to-finish.

   Run with: dune exec examples/data_placement.exe *)

module Q = Rat

let () =
  let seed = 2026 in
  let rng = Ccs_util.Prng.create seed in
  (* 10 databases with Zipf-like popularity, 60 queries, 6 servers that can
     each hold 3 databases. Query cost 5..50ms. *)
  let databases = 10 and servers = 6 and disk_slots = 3 in
  let weights = Array.init databases (fun i -> 1.0 /. float_of_int (i + 1)) in
  let queries =
    List.init 60 (fun _ ->
        let db = Ccs_util.Prng.weighted rng weights in
        let cost = Ccs_util.Prng.int_in rng 5 50 in
        (cost, db))
  in
  let inst = Ccs.Instance.make ~machines:servers ~slots:disk_slots queries in
  Printf.printf "data placement: %d queries over %d databases, %d servers x %d DB slots\n"
    (Ccs.Instance.n inst) (Ccs.Instance.num_classes inst) servers disk_slots;
  let loads = Ccs.Instance.class_load inst in
  Array.iteri (fun db load -> Printf.printf "  db%-2d total query load %d\n" db load) loads;

  (* 7/3-approximation *)
  let sched, stats = Ccs.Approx.Nonpreemptive.solve inst in
  let makespan =
    match Ccs.Schedule.validate_nonpreemptive inst sched with
    | Ok mk -> mk
    | Error e -> failwith e
  in
  let lb = max (Ccs.Instance.pmax inst) ((Ccs.Instance.total_load inst + servers - 1) / servers) in
  Printf.printf "\n7/3-approx placement: makespan %d (lower bound %d, ratio <= %.3f)\n" makespan lb
    (float_of_int makespan /. float_of_int lb);
  Printf.printf "binary search probes: %d, accepted guess T = %d\n" stats.Ccs.Approx.Nonpreemptive.probes
    stats.Ccs.Approx.Nonpreemptive.t_guess;

  (* which databases end up on which server *)
  let server_dbs = Array.make servers [] in
  Array.iteri
    (fun q srv ->
      let db = (Ccs.Instance.job inst q).Ccs.Instance.cls in
      if not (List.mem db server_dbs.(srv)) then server_dbs.(srv) <- db :: server_dbs.(srv))
    sched;
  Array.iteri
    (fun srv dbs ->
      Printf.printf "  server %d stores: %s\n" srv
        (String.concat ", " (List.rev_map (Printf.sprintf "db%d") dbs)))
    server_dbs;

  (* PTAS refinement at delta = 1/2 *)
  let param = Ccs.Ptas.Common.param 2 in
  let sched', stats' = Ccs.Ptas.Nonpreemptive_ptas.solve param inst in
  let makespan' =
    match Ccs.Schedule.validate_nonpreemptive inst sched' with
    | Ok mk -> mk
    | Error e -> failwith e
  in
  Printf.printf "\nPTAS (delta=1/2): makespan %d after %d oracle calls (accepted T = %s)\n" makespan'
    stats'.Ccs.Ptas.Common.oracle_calls
    (Q.to_string stats'.Ccs.Ptas.Common.t_accepted);
  Printf.printf "PTAS guarantee at this delta: %s; 7/3-approx bound: %d\n"
    (Q.to_string (Ccs.Ptas.Nonpreemptive_ptas.guarantee param stats'.Ccs.Ptas.Common.t_accepted))
    (7 * stats.Ccs.Approx.Nonpreemptive.t_guess / 3);
  (* An honest reproduction observation (EXPERIMENTS.md, E7): the PTAS beats
     the 7/3-approximation only once delta is small, but the configuration
     space is exponential in 1/delta — at implementable delta the simple
     algorithm usually wins on real instances. The value of the PTAS is the
     guarantee as epsilon -> 0, not its constant at delta = 1/2. *)
  Printf.printf "measured: PTAS %d vs 7/3-approx %d\n" makespan' makespan
