(* E6, E7, E8 — the three PTASs.

   Each table sweeps the accuracy delta on a fixed pool of small instances
   and reports the measured ratio against ground truth (exact optimum where
   computable, the strongest proven lower bound otherwise), plus the sizes
   the configuration ILP reached and the wall time. The paper's shape to
   reproduce: measured ratios are already near 1 at coarse delta (the
   rounding is pessimistic in analysis, tight in practice), while the cost
   grows exponentially in 1/delta — and the accepted guess T* is within
   (1+delta) of the optimum, which is the PTAS completeness claim. *)

module Q = Rat
module U = Bench_util
module T = Ccs_util.Tables

(* Instances within a delta row are independent, so each row fans its pool
   out with Ccs_par.parallel_map and folds the per-instance results back in
   input order — every aggregate (mean included, a sequential float sum) is
   bit-identical at any -j. *)
let pool ~count ~max_n ~max_m seed0 =
  Array.init count (fun i ->
      let seed = seed0 + (i * 101) in
      let rng = Ccs_util.Prng.create seed in
      let machines = Ccs_util.Prng.int_in rng 2 max_m in
      let slots = Ccs_util.Prng.int_in rng 1 3 in
      let classes = min (Ccs_util.Prng.int_in rng 2 5) (slots * machines) in
      U.instance ~seed ~family:Ccs.Generator.Uniform ~n:(Ccs_util.Prng.int_in rng classes max_n)
        ~classes ~machines ~slots ~p_hi:30)

let e6 () =
  U.header "E6 — splittable PTAS (Theorems 10 and 11)";
  let instances = pool ~count:6 ~max_n:9 ~max_m:3 500 in
  let table = T.create [ "delta"; "mean ratio vs opt"; "max"; "T* <= (1+d)opt"; "mean ILP vars"; "total time" ] in
  List.iter
    (fun d ->
      let p = Ccs.Ptas.Common.param d in
      let ratios = ref [] and vars = ref [] and ok_t = ref true in
      let results, elapsed =
        U.time (fun () ->
            Ccs_par.parallel_map
              (fun inst ->
                match Ccs_exact.Splittable_opt.solve ~max_nodes:400 inst with
                | None -> None
                | Some opt ->
                    let sched, stats = Ccs.Ptas.Splittable_ptas.solve p inst in
                    let ratio =
                      match Ccs.Schedule.validate_splittable inst sched with
                      | Error e -> failwith ("E6: " ^ e)
                      | Ok mk -> Q.to_float mk /. Q.to_float opt
                    in
                    let t_ok =
                      let t_accepted = stats.Ccs.Ptas.Common.t_accepted in
                      Q.(t_accepted <= Q.mul (Q.add Q.one (Ccs.Ptas.Common.delta p)) opt)
                    in
                    Some (ratio, float_of_int stats.Ccs.Ptas.Common.ilp_vars, t_ok))
              instances)
      in
      Array.iter
        (function
          | None -> ()
          | Some (r, v, t_ok) ->
              ratios := r :: !ratios;
              vars := v :: !vars;
              if not t_ok then ok_t := false)
        results;
      let mx, mean = U.summarize !ratios in
      let _, mean_vars = U.summarize !vars in
      T.add_row table
        [ Printf.sprintf "1/%d" d; U.f4 mean; U.f4 mx; string_of_bool !ok_t;
          U.f2 mean_vars; Printf.sprintf "%.1fs" elapsed ])
    [ 1; 2; 3 ];
  T.print table;
  (* Theorem 11: exponential machine count *)
  let inst =
    Ccs.Instance.make ~machines:1_000_000_000_000 ~slots:1
      [ (700, 0); (650, 1); (600, 2); (11, 0) ]
  in
  let p = Ccs.Ptas.Common.param 2 in
  let (sched, stats), elapsed = U.time (fun () -> Ccs.Ptas.Splittable_ptas.solve p inst) in
  (match Ccs.Schedule.validate_splittable inst sched with
  | Ok mk ->
      Printf.printf
        "Theorem 11 (m = 10^12): makespan %s at T* = %s, compressed=%b, blocks=%d, %.1fs\n"
        (Q.to_string mk)
        (Q.to_string stats.Ccs.Ptas.Common.t_accepted)
        (Ccs.Instance.m inst > Ccs.Ptas.Splittable_ptas.explicit_limit)
        (List.length sched.Ccs.Schedule.blocks) elapsed
  | Error e -> failwith e);
  U.footnote
    "claims: T* <= (1+delta) opt on every instance (PTAS completeness) and the\n\
     makespan stays within the (1+5delta)T* construction guarantee. At coarse\n\
     delta the Tbar = (1+4delta)T budget dominates measured quality (~1.5x), so\n\
     ratios do not approach 1 until delta is far below what the exponential\n\
     configuration space allows — see DESIGN.md, 'Coarse-delta reality'."

let e7 () =
  U.header "E7 — non-preemptive PTAS (Theorem 14)";
  let instances = pool ~count:6 ~max_n:10 ~max_m:3 900 in
  let table = T.create [ "delta"; "mean ratio vs opt"; "max"; "T* <= (1+d)opt"; "vs 7/3-approx (mean)"; "total time" ] in
  List.iter
    (fun d ->
      let p = Ccs.Ptas.Common.param d in
      let ratios = ref [] and vs73 = ref [] and ok_t = ref true in
      let results, elapsed =
        U.time (fun () ->
            Ccs_par.parallel_map
              (fun inst ->
                match Ccs_exact.Bnb.solve inst with
                | None -> None
                | Some (opt, _) ->
                    let sched, stats = Ccs.Ptas.Nonpreemptive_ptas.solve p inst in
                    let row =
                      match Ccs.Schedule.validate_nonpreemptive inst sched with
                      | Error e -> failwith ("E7: " ^ e)
                      | Ok mk ->
                          let approx, _ = Ccs.Approx.Nonpreemptive.solve inst in
                          let amk = Ccs.Schedule.nonpreemptive_makespan inst approx in
                          ( float_of_int mk /. float_of_int opt,
                            float_of_int mk /. float_of_int amk )
                    in
                    let t_ok =
                      let t_accepted = stats.Ccs.Ptas.Common.t_accepted in
                      Q.(t_accepted <= Q.mul (Q.add Q.one (Ccs.Ptas.Common.delta p)) (Q.of_int opt))
                    in
                    Some (row, t_ok))
              instances)
      in
      Array.iter
        (function
          | None -> ()
          | Some ((r, v), t_ok) ->
              ratios := r :: !ratios;
              vs73 := v :: !vs73;
              if not t_ok then ok_t := false)
        results;
      let mx, mean = U.summarize !ratios in
      let _, mean73 = U.summarize !vs73 in
      T.add_row table
        [ Printf.sprintf "1/%d" d; U.f4 mean; U.f4 mx; string_of_bool !ok_t; U.f3 mean73;
          Printf.sprintf "%.1fs" elapsed ])
    [ 1; 2; 3 ];
  T.print table;
  U.footnote
    "claims: T* <= (1+delta) opt on every instance (completeness), makespan within\n\
     the ((1+3d)(1+2d)+d)T* guarantee. The measured crossover against the 7/3\n\
     algorithm needs deltas finer than the configuration space permits; at\n\
     delta >= 1/3 the simple algorithm usually wins on makespan while the PTAS\n\
     wins on certified optimality gap (T* brackets opt to within 1+delta)."

let e8 () =
  U.header "E8 — preemptive PTAS (Theorem 19)";
  let instances = pool ~count:5 ~max_n:9 ~max_m:3 1300 in
  let table = T.create [ "delta"; "layers"; "mean ratio vs opt"; "max"; "realization failures"; "total time" ] in
  List.iter
    (fun d ->
      let p = Ccs.Ptas.Common.param d in
      let ratios = ref [] and failures = ref 0 in
      let results, elapsed =
        U.time (fun () ->
            Ccs_par.parallel_map
              (fun inst ->
                (* true preemptive optimum (open-shop reduction), falling
                   back to the strongest lower bound if out of budget *)
                let lb =
                  match Ccs_exact.Preemptive_opt.opt ~max_nodes:3_000 inst with
                  | Some opt -> opt
                  | None -> (
                      match Ccs_exact.Splittable_opt.solve ~max_nodes:300 inst with
                      | Some split -> Q.max split (Q.of_int (Ccs.Instance.pmax inst))
                      | None -> Ccs.Bounds.lb_preemptive inst)
                in
                try
                  let sched, _ = Ccs.Ptas.Preemptive_ptas.solve p inst in
                  match Ccs.Schedule.validate_preemptive inst sched with
                  | Error e -> failwith ("E8: " ^ e)
                  | Ok mk -> `Solved (Q.to_float mk /. Q.to_float lb)
                with Failure _ -> `Failed)
              instances)
      in
      Array.iter
        (function
          | `Failed -> incr failures
          | `Solved r -> ratios := r :: !ratios)
        results;
      let mx, mean = U.summarize !ratios in
      T.add_row table
        [ Printf.sprintf "1/%d" d;
          string_of_int (Ccs.Ptas.Preemptive_ptas.layers p);
          U.f4 mean;
          U.f4 mx;
          string_of_int !failures; Printf.sprintf "%.1fs" elapsed ])
    [ 1; 2 ];
  T.print table;
  U.footnote
    "ratios are against the true preemptive optimum (exact open-shop-reduction\n\
     solver, Ccs_exact.Preemptive_opt) whenever it fits the budget, else against\n\
     the strongest lower bound. Realization failures would indicate the layer\n\
     symmetrization lost a solution — expect 0."
