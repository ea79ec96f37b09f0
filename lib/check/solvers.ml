(* Registry of every solver the differential oracle drives.

   Besides its validated makespan, each run reports two certificates
   extracted from the solver's own statistics: a lower bound on the regime's
   optimum (the accepted border of Lemma 2, or the rejected grid point of
   the dual approximation) and the upper bound its construction promises for
   the makespan. The oracle cross-checks certificates *between* solvers —
   solver A's lower bound must stay below solver B's makespan, within a
   regime and along the splittable <= preemptive <= non-preemptive
   dominance chain — which is what makes the testing differential rather
   than per-solver. *)

module Q = Rat
module I = Ccs.Instance
module S = Ccs.Schedule
module Common = Ccs.Ptas.Common

type regime = Splittable | Preemptive | Nonpreemptive

let regime_name = function
  | Splittable -> "splittable"
  | Preemptive -> "preemptive"
  | Nonpreemptive -> "nonpreemptive"

(* OPT_splittable <= OPT_preemptive <= OPT_nonpreemptive on any instance:
   every non-preemptive schedule is preemptive, every preemptive one
   splittable. *)
let regime_rank = function Splittable -> 0 | Preemptive -> 1 | Nonpreemptive -> 2

type run = {
  makespan : Q.t;  (** as recomputed by the Schedule validator *)
  lower : Q.t;  (** certified lower bound on this regime's optimum *)
  upper : Q.t;  (** certified upper bound on this run's makespan *)
  witness : Q.t;  (** the accepted guess T (the optimum itself when exact) *)
}

type outcome =
  | Solved of run
  | Skipped of string
  | Invalid of string
  | Crashed of string

type limits = {
  ptas_n : int;
  ptas_pre_n : int;
  ptas_classes : int;
  ptas_machines : int;
  exact_cm : int;
  exact_nm : int;
  bnb_n : int;
  bnb_nodes : int;
  brute_n : int;
}

(* The PTAS gates are deliberately tight: the configuration enumeration cost
   is erratic in (n, C, m) and single solves can take seconds just outside
   these bounds, while the oracle runs every solver up to four times per
   instance (base + three metamorphic probes). *)
let default_limits =
  {
    ptas_n = 8;
    ptas_pre_n = 6;
    ptas_classes = 3;
    ptas_machines = 3;
    exact_cm = 12;
    exact_nm = 18;
    bnb_n = 11;
    bnb_nodes = 300_000;
    brute_n = 7;
  }

type solver = {
  name : string;
  regime : regime;
  exact : bool;
  ratio : Q.t;  (** certified worst-case makespan / same-regime optimum *)
  scale_exact : bool;  (** makespan commutes exactly with scaling all p_j *)
  perm_exact : bool;  (** makespan invariant under class-id/job permutation *)
  mono_machines : bool;  (** adding a machine never increases the makespan *)
  witness_growth : Q.t;  (** adding a machine keeps witness' <= growth * witness *)
  applicable : limits -> I.t -> bool;
  run : I.t -> outcome;
}

let validated validate inst sched finish =
  match validate inst sched with Error e -> Invalid e | Ok mk -> Solved (finish mk)

let q2 = Q.of_int 2
let always _ _ = true

let split_approx =
  {
    name = "splittable/approx2";
    regime = Splittable;
    exact = false;
    ratio = q2;
    scale_exact = true;
    perm_exact = true;
    (* only OPT is monotone in m; the wrap-around construction can emit a
       worse schedule on more machines (seed 1 index 14 finds one) *)
    mono_machines = false;
    witness_growth = Q.one;
    applicable = always;
    run =
      (fun inst ->
        let sched, stats = Ccs.Approx.Splittable.solve inst in
        validated S.validate_splittable inst sched (fun mk ->
            let t = stats.Ccs.Approx.Splittable.t_guess in
            { makespan = mk; lower = t; upper = Q.mul q2 t; witness = t }));
  }

let pre_approx =
  {
    name = "preemptive/approx2";
    regime = Preemptive;
    exact = false;
    ratio = q2;
    scale_exact = true;
    perm_exact = true;
    mono_machines = false;
    witness_growth = Q.one;
    applicable = always;
    run =
      (fun inst ->
        let sched, stats = Ccs.Approx.Preemptive.solve inst in
        validated S.validate_preemptive inst sched (fun mk ->
            let t = stats.Ccs.Approx.Preemptive.t_guess in
            { makespan = mk; lower = t; upper = Q.mul q2 t; witness = t }));
  }

let np_approx =
  {
    name = "nonpreemptive/approx73";
    regime = Nonpreemptive;
    exact = false;
    ratio = Q.of_ints 7 3;
    (* the binary search runs on the integer grid, which does not commute
       with scaling (ceil (k*P/m) < k * ceil (P/m) in general) *)
    scale_exact = false;
    perm_exact = true;
    mono_machines = false;
    witness_growth = Q.one;
    applicable = always;
    run =
      (fun inst ->
        let sched, stats = Ccs.Approx.Nonpreemptive.solve inst in
        validated S.validate_nonpreemptive inst sched (fun mk ->
            let t = Q.of_int stats.Ccs.Approx.Nonpreemptive.t_guess in
            (* Theorem 6: round robin stays below avg + max item, with the
               sub-class loads at most 4T/3 after the LPT split. *)
            let upper = Q.add (Ccs.Bounds.lb_splittable inst) (Q.mul (Q.of_ints 4 3) t) in
            { makespan = Q.of_int mk; lower = t; upper; witness = t }));
  }

(* PTAS witnesses: the accepted grid point T_acc of the dual approximation.
   Its predecessor T_acc/(1+delta) was rejected by a complete oracle (or was
   below the certified lower bound), so T_acc/(1+delta) <= OPT. *)
let ptas_lower param t = Q.div t (Q.add Q.one (Common.delta param))

let ptas_gate ?(pre = false) limits inst =
  I.n inst <= (if pre then limits.ptas_pre_n else limits.ptas_n)
  && I.num_classes inst <= limits.ptas_classes
  && I.m inst <= limits.ptas_machines

let split_ptas param =
  let guarantee t = Ccs.Ptas.Splittable_ptas.guarantee param t in
  {
    name = "splittable/ptas";
    regime = Splittable;
    exact = false;
    ratio = Q.mul (guarantee Q.one) (Q.add Q.one (Common.delta param));
    scale_exact = true;
    perm_exact = false;
    mono_machines = false;
    witness_growth = Q.add Q.one (Common.delta param);
    applicable = (fun l inst -> ptas_gate l inst);
    run =
      (fun inst ->
        let sched, stats = Ccs.Ptas.Splittable_ptas.solve param inst in
        validated S.validate_splittable inst sched (fun mk ->
            let t = stats.Ccs.Ptas.Common.t_accepted in
            { makespan = mk; lower = ptas_lower param t; upper = guarantee t; witness = t }));
  }

let pre_ptas param =
  let guarantee t = Ccs.Ptas.Preemptive_ptas.guarantee param t in
  {
    name = "preemptive/ptas";
    regime = Preemptive;
    exact = false;
    ratio = Q.mul (guarantee Q.one) (Q.add Q.one (Common.delta param));
    scale_exact = true;
    perm_exact = false;
    mono_machines = false;
    witness_growth = Q.add Q.one (Common.delta param);
    applicable = (fun l inst -> ptas_gate ~pre:true l inst);
    run =
      (fun inst ->
        let sched, stats = Ccs.Ptas.Preemptive_ptas.solve param inst in
        validated S.validate_preemptive inst sched (fun mk ->
            let t = stats.Ccs.Ptas.Common.t_accepted in
            { makespan = mk; lower = ptas_lower param t; upper = guarantee t; witness = t }));
  }

let np_ptas param =
  let guarantee t = Ccs.Ptas.Nonpreemptive_ptas.guarantee param t in
  {
    name = "nonpreemptive/ptas";
    regime = Nonpreemptive;
    exact = false;
    ratio = Q.mul (guarantee Q.one) (Q.add Q.one (Common.delta param));
    (* integer makespan grid: does not commute with scaling (201 vs 2*101) *)
    scale_exact = false;
    perm_exact = false;
    mono_machines = false;
    witness_growth = Q.add Q.one (Common.delta param);
    applicable = (fun l inst -> ptas_gate l inst);
    run =
      (fun inst ->
        let sched, stats = Ccs.Ptas.Nonpreemptive_ptas.solve param inst in
        validated S.validate_nonpreemptive inst sched (fun mk ->
            let t = stats.Ccs.Ptas.Common.t_accepted in
            { makespan = Q.of_int mk; lower = ptas_lower param t; upper = guarantee t; witness = t }));
  }

let exact_run opt = { makespan = opt; lower = opt; upper = opt; witness = opt }

let split_milp =
  {
    name = "splittable/milp";
    regime = Splittable;
    exact = true;
    ratio = Q.one;
    scale_exact = true;
    perm_exact = true;
    mono_machines = true;
    witness_growth = Q.one;
    applicable = (fun l inst -> I.m inst * I.num_classes inst <= l.exact_cm);
    run =
      (fun inst ->
        match Ccs_exact.Splittable_opt.solve_schedule inst with
        | None -> Skipped "MILP budget or size"
        | Some (opt, sched) ->
            validated S.validate_splittable inst sched (fun mk ->
                { (exact_run opt) with makespan = mk }));
  }

let pre_milp =
  {
    name = "preemptive/milp";
    regime = Preemptive;
    exact = true;
    ratio = Q.one;
    scale_exact = true;
    perm_exact = true;
    mono_machines = true;
    witness_growth = Q.one;
    applicable = (fun l inst -> I.n inst * I.m inst <= l.exact_nm);
    run =
      (fun inst ->
        match Ccs_exact.Preemptive_opt.solve inst with
        | None -> Skipped "MILP budget or size"
        | Some (opt, sched) ->
            validated S.validate_preemptive inst sched (fun mk ->
                { (exact_run opt) with makespan = mk }));
  }

let np_bnb limits =
  {
    name = "nonpreemptive/bnb";
    regime = Nonpreemptive;
    exact = true;
    ratio = Q.one;
    scale_exact = true;
    perm_exact = true;
    mono_machines = true;
    witness_growth = Q.one;
    applicable = (fun l inst -> I.n inst <= l.bnb_n);
    run =
      (fun inst ->
        match Ccs_exact.Bnb.solve ~node_limit:limits.bnb_nodes inst with
        | None -> Skipped "B&B node budget"
        | Some (opt, sched) ->
            validated S.validate_nonpreemptive inst sched (fun mk ->
                { (exact_run (Q.of_int opt)) with makespan = Q.of_int mk }));
  }

let np_portfolio limits =
  {
    name = "nonpreemptive/portfolio";
    regime = Nonpreemptive;
    exact = true;
    ratio = Q.one;
    scale_exact = true;
    perm_exact = true;
    mono_machines = true;
    witness_growth = Q.one;
    (* shares the B&B gate: member 0 is the B&B itself and the race runs
       sequentially on the oracle's 1-worker pool, so this mostly exercises
       the proof-or-abstain contract against the other exact solvers *)
    applicable = (fun l inst -> I.n inst <= l.bnb_n);
    run =
      (fun inst ->
        match Ccs_exact.Portfolio.solve ~node_limit:limits.bnb_nodes inst with
        | None -> Skipped "unschedulable"
        | Some o when not o.Ccs_exact.Portfolio.proved -> Skipped "portfolio budgets"
        | Some o ->
            validated S.validate_nonpreemptive inst o.Ccs_exact.Portfolio.assignment
              (fun mk ->
                { (exact_run (Q.of_int o.Ccs_exact.Portfolio.makespan)) with
                  makespan = Q.of_int mk }));
  }

let np_brute =
  {
    name = "nonpreemptive/brute";
    regime = Nonpreemptive;
    exact = true;
    ratio = Q.one;
    scale_exact = true;
    perm_exact = true;
    mono_machines = true;
    witness_growth = Q.one;
    applicable = (fun l inst -> I.n inst <= l.brute_n && I.m inst <= 4);
    run =
      (fun inst ->
        match Ccs_exact.Bnb.brute_force inst with
        | None -> Skipped "unschedulable"
        | Some opt -> Solved (exact_run (Q.of_int opt)));
  }

let all ?(limits = default_limits) param =
  [
    split_approx;
    split_ptas param;
    split_milp;
    pre_approx;
    pre_ptas param;
    pre_milp;
    np_approx;
    np_ptas param;
    np_bnb limits;
    np_portfolio limits;
    np_brute;
  ]
