(* PTAS accuracy sweep: the (1+epsilon) trade-off of Theorems 10/14 made
   visible. For one instance we sweep delta = 1, 1/2, 1/3 and report the
   measured makespan, the accepted guess, the ILP size and the time — the
   "price of accuracy" is the exponential growth of the configuration
   space, exactly as the n^{O(poly(1/delta))} running times predict.

   Run with: dune exec examples/ptas_demo.exe *)

module Q = Rat

let time f =
  let t0 = Ccs_util.Mono.now_s () in
  let r = f () in
  (r, Ccs_util.Mono.now_s () -. t0)

let () =
  let inst =
    Ccs.Instance.make ~machines:3 ~slots:2
      [ (13, 0); (11, 0); (9, 1); (7, 1); (6, 2); (5, 2); (4, 3); (3, 3); (2, 4); (2, 4) ]
  in
  Printf.printf "instance: n=%d m=%d c=%d C=%d, total load %d\n\n" (Ccs.Instance.n inst)
    (Ccs.Instance.m inst) (Ccs.Instance.c inst) (Ccs.Instance.num_classes inst)
    (Ccs.Instance.total_load inst);

  let exact_np =
    match Ccs_exact.Bnb.solve inst with Some (opt, _) -> opt | None -> -1
  in
  Printf.printf "non-preemptive exact optimum: %d\n" exact_np;
  Printf.printf "%-8s %-10s %-12s %-10s %-8s %-8s\n" "delta" "makespan" "ratio" "T accepted" "ILP vars" "time";
  List.iter
    (fun d ->
      let param = Ccs.Ptas.Common.param d in
      let (sched, stats), elapsed = time (fun () -> Ccs.Ptas.Nonpreemptive_ptas.solve param inst) in
      match Ccs.Schedule.validate_nonpreemptive inst sched with
      | Ok mk ->
          Printf.printf "1/%-6d %-10d %-12.4f %-10s %-8d %.2fs\n" d mk
            (float_of_int mk /. float_of_int exact_np)
            (Q.to_string stats.Ccs.Ptas.Common.t_accepted)
            stats.Ccs.Ptas.Common.ilp_vars elapsed
      | Error e -> failwith e)
    [ 1; 2; 3 ];

  Printf.printf "\nsplittable case, same sweep:\n";
  let exact_sp =
    match Ccs_exact.Splittable_opt.solve inst with
    | Some opt -> Q.to_float opt
    | None -> nan
  in
  Printf.printf "splittable exact optimum: %.4f\n" exact_sp;
  Printf.printf "%-8s %-10s %-12s %-10s %-8s %-8s\n" "delta" "makespan" "ratio" "T accepted" "ILP vars" "time";
  List.iter
    (fun d ->
      let param = Ccs.Ptas.Common.param d in
      let (sched, stats), elapsed = time (fun () -> Ccs.Ptas.Splittable_ptas.solve param inst) in
      match Ccs.Schedule.validate_splittable inst sched with
      | Ok mk ->
          Printf.printf "1/%-6d %-10.4f %-12.4f %-10s %-8d %.2fs\n" d (Q.to_float mk)
            (Q.to_float mk /. exact_sp)
            (Q.to_string stats.Ccs.Ptas.Common.t_accepted)
            stats.Ccs.Ptas.Common.ilp_vars elapsed
      | Error e -> failwith e)
    [ 1; 2; 3 ]
