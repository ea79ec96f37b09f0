module Q = Rat

type stats = { t_guess : Q.t; probes : int; repacked : bool }

(* The one core. The sub-class items and their fragments live in flat CSR
   arrays instead of per-item cons cells, and the final stable sort runs on
   an index array, so a million-job solve allocates O(items) scratch words
   plus the output pieces. *)
let solve_flat fl =
  if not (Instance.Flat.schedulable fl) then
    invalid_arg "Approx.Preemptive.solve: C > c*m, no schedule exists";
  Ccs_obs.Recorder.phase "approx" @@ fun () ->
  let n = Instance.Flat.n fl and m = Instance.Flat.m fl in
  let job_p = Instance.Flat.job_p fl and pmax = Instance.Flat.pmax fl in
  if m >= n then begin
    (* One machine per job: makespan pmax = LB, an optimal schedule. *)
    let sched =
      Array.init n (fun j ->
          [ { Schedule.pjob = j; start = Q.zero; len = Q.of_int (job_p j) } ])
    in
    (sched, { t_guess = Q.of_int pmax; probes = 0; repacked = false })
  end
  else begin
    let loads = Instance.Flat.class_load fl in
    let lb =
      Bounds.lb_preemptive_of ~total_load:(Instance.Flat.total_load fl) ~machines:m ~pmax
    in
    let { Border_search.t_star = t; probes } =
      Border_search.search ~loads ~machines:m ~slots:(Instance.Flat.c fl) ~lb
    in
    let offsets, ids = Instance.Flat.class_jobs_csr fl in
    let nc = Array.length loads in
    (* Exact item count: a class above T flushes exactly ceil(pu/T) items
       (the final flush fires iff a remainder is left), anything else is a
       single item, even an empty class (its zero-size item shifts the
       round robin's modulo). *)
    let total_items = ref 0 in
    for u = 0 to nc - 1 do
      let pu_q = Q.of_int loads.(u) in
      total_items :=
        !total_items
        + (if Q.(pu_q > t) then Bigint.to_int_exn (Q.ceil (Q.div pu_q t)) else 1)
    done;
    let total_items = !total_items in
    (* Each of the at most [total_items - 1] cuts adds one fragment beyond
       the per-job one, so [n + total_items] bounds the fragment count. *)
    let frag_cap = n + total_items in
    let item_size = Array.make total_items Q.zero in
    let item_off = Array.make (total_items + 1) 0 in
    let frag_job = Array.make frag_cap 0 in
    let frag_len = Array.make frag_cap Q.zero in
    let ni = ref 0 and nf = ref 0 in
    let open_item () = item_off.(!ni) <- !nf in
    let close_item size =
      item_size.(!ni) <- size;
      incr ni;
      open_item ()
    in
    (* Cut each large class's job concatenation (jobs in index order) at
       multiples of T. Because T >= pmax, a job is cut at most once. *)
    let any_split = ref false in
    for u = 0 to nc - 1 do
      let pu_q = Q.of_int loads.(u) in
      if Q.(pu_q > t) then begin
        any_split := true;
        let current_size = ref Q.zero in
        let flush () =
          if Q.sign !current_size > 0 then begin
            close_item !current_size;
            current_size := Q.zero
          end
        in
        for k = offsets.(u) to offsets.(u + 1) - 1 do
          let j = ids.(k) in
          let remaining = ref (Q.of_int (job_p j)) in
          while Q.sign !remaining > 0 do
            let room = Q.sub t !current_size in
            let take = Q.min room !remaining in
            frag_job.(!nf) <- j;
            frag_len.(!nf) <- take;
            incr nf;
            current_size := Q.add !current_size take;
            remaining := Q.sub !remaining take;
            if Q.(Q.sub t !current_size = Q.zero) then flush ()
          done
        done;
        flush ()
      end
      else begin
        for k = offsets.(u) to offsets.(u + 1) - 1 do
          let j = ids.(k) in
          frag_job.(!nf) <- j;
          frag_len.(!nf) <- Q.of_int (job_p j);
          incr nf
        done;
        close_item pu_q
      end
    done;
    assert (!ni = total_items);
    item_off.(total_items) <- !nf;
    (* Stable sort on the build order keeps same-class slices consecutive
       and in slicing order among equal sizes, as in Figure 1. *)
    let order = Array.init total_items (fun i -> i) in
    Array.stable_sort (fun a b -> Q.compare item_size.(b) item_size.(a)) order;
    (* Round robin: machine mi takes sorted items mi, mi + m, ... stacked
       bottom-up; if any class was split, everything above a machine's
       first item is shifted to start at time T (Algorithm 2). *)
    let repack = !any_split in
    let sched =
      Array.init m (fun mi ->
          let pieces = ref [] in
          let top = ref Q.zero in
          let idx = ref 0 in
          let i = ref mi in
          while !i < total_items do
            let it = order.(!i) in
            if repack && !idx = 1 then top := Q.max !top t;
            for k = item_off.(it) to item_off.(it + 1) - 1 do
              pieces := { Schedule.pjob = frag_job.(k); start = !top; len = frag_len.(k) } :: !pieces;
              top := Q.add !top frag_len.(k)
            done;
            incr idx;
            i := !i + m
          done;
          List.rev !pieces)
    in
    (sched, { t_guess = t; probes; repacked = repack })
  end

let solve inst = solve_flat (Instance.to_flat inst)
