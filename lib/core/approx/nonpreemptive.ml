type stats = { t_guess : int; probes : int }

let chk_probe = Ccs_resil.Deadline.site "approx.probe"

(* C2_u: jobs > T/2 need distinct machines; jobs in (T/3, T/2] are paired
   onto them greedily (largest fitting on the smallest remaining big job
   maximizes the number of pairings); leftovers go two per machine. *)
let cu_large ~t jobs =
  let bigs = List.filter (fun p -> 2 * p > t) jobs |> List.sort compare in
  let mids =
    List.filter (fun p -> 2 * p <= t && 3 * p > t) jobs |> List.sort (fun a b -> compare b a)
  in
  let ku = List.length bigs in
  (* two-pointer matching: mids descending against bigs ascending *)
  let rec pair bigs mids unmatched =
    match (bigs, mids) with
    | _, [] -> unmatched
    | [], rest -> unmatched + List.length rest
    | b :: bs, mid :: ms ->
        if b + mid <= t then pair bs ms unmatched
        else pair bigs ms (unmatched + 1)
  in
  let lu = pair bigs mids 0 in
  ku + ((lu + 1) / 2)

let cu_area_only ~t jobs =
  let total = List.fold_left ( + ) 0 jobs in
  (total + t - 1) / t

let cu ~t jobs = max (cu_area_only ~t jobs) (cu_large ~t jobs)

(* The one core. Each class's job indices are sorted once by
   (p descending, index ascending) into a CSR segment: the LPT placement
   order, and the order in which a feasibility probe classifies jobs
   against T with no per-probe sorting and no allocation (the big/mid
   scratch arrays are reused across probes). O(n log n) once, O(n) per
   probe, O(log ub) probes.

   [spec = None] counts C_u with that allocation-free scan, which yields
   exactly the sequences (bigs ascending, mids descending) the list
   specification [cu] sorts into. [spec = Some f] is the ablation hook: [f]
   sees each class's sizes in index order, as a list built once per class.
   [use_lpt = false] places each class in input (index) order instead of
   the presorted order. *)
let run ~use_lpt ~spec fl =
  if not (Instance.Flat.schedulable fl) then
    invalid_arg "Approx.Nonpreemptive.solve: C > c*m, no schedule exists";
  Ccs_obs.Recorder.phase "approx" @@ fun () ->
  let n = Instance.Flat.n fl in
  let m = Instance.Flat.m fl in
  if m >= n then begin
    (* One machine per job is optimal (makespan pmax = LB). *)
    let sched = Array.init n (fun j -> j) in
    (sched, { t_guess = Instance.Flat.pmax fl; probes = 0 })
  end
  else begin
    let loads = Instance.Flat.class_load fl in
    let classes = Instance.Flat.num_classes fl in
    let offsets, ids = Instance.Flat.class_jobs_csr fl in
    let job_p = Instance.Flat.job_p fl in
    let sid = Array.copy ids in
    for u = 0 to classes - 1 do
      let lo = offsets.(u) and hi = offsets.(u + 1) in
      if hi - lo > 1 then begin
        let seg = Array.sub sid lo (hi - lo) in
        Array.sort
          (fun a b ->
            let pa = job_p a and pb = job_p b in
            if pa <> pb then compare pb pa else compare a b)
          seg;
        Array.blit seg 0 sid lo (hi - lo)
      end
    done;
    let sp = Array.map job_p sid in
    let cu_cls =
      match spec with
      | Some f ->
          let sizes =
            Array.init classes (fun u ->
                List.init (offsets.(u + 1) - offsets.(u)) (fun i -> job_p ids.(offsets.(u) + i)))
          in
          fun ~t u -> f ~t sizes.(u)
      | None ->
          (* Scratch for one class's big/mid sizes, reused across probes. *)
          let bigs = Array.make n 0 and mids = Array.make n 0 in
          fun ~t u ->
            let lo = offsets.(u) and hi = offsets.(u + 1) in
            (* The segment is size-descending, so bigs and mids both land
               in descending order; bigs are read backwards for the
               ascending two-pointer. *)
            let nb = ref 0 and nm = ref 0 in
            for i = lo to hi - 1 do
              let p = Array.unsafe_get sp i in
              if 2 * p > t then begin
                Array.unsafe_set bigs !nb p;
                incr nb
              end
              else if 3 * p > t then begin
                Array.unsafe_set mids !nm p;
                incr nm
              end
            done;
            let bi = ref (!nb - 1) and mi = ref 0 and lu = ref 0 in
            while !mi < !nm do
              if !bi < 0 then begin
                lu := !lu + (!nm - !mi);
                mi := !nm
              end
              else if Array.unsafe_get bigs !bi + Array.unsafe_get mids !mi <= t then begin
                decr bi;
                incr mi
              end
              else begin
                incr lu;
                incr mi
              end
            done;
            let c2 = !nb + ((!lu + 1) / 2) in
            let c1 = (loads.(u) + t - 1) / t in
            max c1 c2
    in
    let cap = Border_search.slot_cap ~machines:m ~slots:(Instance.Flat.c fl) in
    let probes = ref 0 in
    let feasible t =
      Ccs_resil.Deadline.check chk_probe;
      incr probes;
      let count = ref 0 in
      try
        for u = 0 to classes - 1 do
          count := !count + cu_cls ~t u;
          if !count > cap then raise Exit
        done;
        true
      with Exit -> false
    in
    let total = Instance.Flat.total_load fl in
    let lb = max (Instance.Flat.pmax fl) ((total + m - 1) / m) in
    let ub = max lb (Array.fold_left max 0 loads) in
    (* Integral makespan: standard binary search for the smallest feasible
       guess (the count is monotone in T). *)
    let lo = ref lb and hi = ref ub in
    if not (feasible ub) then
      invalid_arg "Approx.Nonpreemptive.solve: unschedulable at the upper bound";
    while !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      if feasible mid then hi := mid else lo := mid + 1
    done;
    let t = !lo in
    (* Split every class into C_u sub-classes by list scheduling over its
       segment (each job onto the first least-loaded bin, bins holding
       their jobs in reverse placement order), then round-robin the
       sub-classes in non-ascending load order. *)
    let seg = if use_lpt then sid else ids in
    let items = ref [] in
    for u = 0 to classes - 1 do
      let bins = cu_cls ~t u in
      let load = Array.make bins 0 in
      let content = Array.make bins [] in
      for i = offsets.(u) to offsets.(u + 1) - 1 do
        let best = ref 0 in
        for k = 1 to bins - 1 do
          if load.(k) < load.(!best) then best := k
        done;
        content.(!best) <- seg.(i) :: content.(!best);
        load.(!best) <- load.(!best) + job_p seg.(i)
      done;
      Array.iteri
        (fun k part -> if part <> [] then items := (load.(k), part) :: !items)
        content
    done;
    let sorted = List.stable_sort (fun (a, _) (b, _) -> compare b a) (List.rev !items) in
    let per_machine = Round_robin.assign ~machines:m sorted in
    let assignment = Array.make n (-1) in
    Array.iteri
      (fun machine items ->
        List.iter (fun (_, jobs) -> List.iter (fun j -> assignment.(j) <- machine) jobs) items)
      per_machine;
    (assignment, { t_guess = t; probes = !probes })
  end

let solve_flat fl = run ~use_lpt:true ~spec:None fl
let solve inst = solve_flat (Instance.to_flat inst)

let solve_with_counter ?(use_lpt = true) ~counter inst =
  run ~use_lpt ~spec:(Some counter) (Instance.to_flat inst)
