module Q = Rat

let guarantee (p : Common.param) t =
  let delta = Common.delta p in
  Q.add
    (Q.mul
       (Q.mul (Q.add Q.one (Q.mul (Q.of_int 3) delta)) (Q.add Q.one (Q.mul (Q.of_int 2) delta)))
       t)
    (Q.mul delta t)

type rounded = {
  tbar : int;  (* in base units delta^2*T/c *)
  cstar : int;
  gclasses : Common.gclass array;
  (* large classes: (gclass index, histogram of rounded sizes in base units,
     jobs bucketed per rounded size) *)
  large : (int * (int * int) list * (int, Common.gjob list ref) Hashtbl.t) list;
  smalls_by_size : (int * int list) list;  (* rounded size -> gclass indices *)
}

let round_instance (p : Common.param) inst t =
  let d = p.Common.d in
  let c = Instance.c inst in
  let unit_q = Q.div t (Q.of_int (c * d * d)) in
  let tbar = c * (d + 3) * (d + 2) in
  let delta_t = Q.div t (Q.of_int d) in
  let gclasses = Common.group_classes inst ~delta_t in
  let large = ref [] and smalls = Hashtbl.create 8 in
  Array.iteri
    (fun gi gc ->
      match gc.Common.small_job with
      | Some y ->
          let s = max 1 (Bigint.to_int_exn (Q.ceil (Q.div (Q.of_int y.Common.gsize) unit_q))) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt smalls s) in
          Hashtbl.replace smalls s (gi :: prev)
      | None ->
          let buckets : (int, Common.gjob list ref) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun gj ->
              (* multiples of delta^2*T = c base units *)
              let k =
                Bigint.to_int_exn
                  (Q.ceil (Q.div (Q.of_int gj.Common.gsize) (Q.mul unit_q (Q.of_int c))))
              in
              let size = k * c in
              match Hashtbl.find_opt buckets size with
              | Some r -> r := gj :: !r
              | None -> Hashtbl.replace buckets size (ref [ gj ]))
            gc.Common.large_jobs;
          let hist =
            Hashtbl.fold (fun size r acc -> (size, List.length !r) :: acc) buckets []
            |> List.sort compare
          in
          large := (gi, hist, buckets) :: !large)
    gclasses;
  {
    tbar;
    cstar = min (tbar / (d * c)) (Instance.c inst);
    gclasses;
    large = List.rev !large;
    smalls_by_size = Hashtbl.fold (fun s cls acc -> (s, cls) :: acc) smalls [];
  }

(* Candidate modules of one class: non-empty sub-multisets of its histogram
   with sum <= tbar. Returned as sorted-descending size lists. *)
let class_modules rounded (_, hist, _) =
  Common.bounded_multisets ~parts:hist ~max_sum:rounded.tbar ~max_count:max_int ()
  |> List.filter (( <> ) [])

(* Modules are enumerated per class; the y variables are the modules,
   (large index, module) in class order, and configurations are multisets
   of module sizes. *)
let round p inst t =
  let r = round_instance p inst t in
  let modules =
    List.mapi (fun li lc -> List.map (fun m -> (li, m)) (class_modules r lc)) r.large
    |> List.concat |> Array.of_list
  in
  let size mdl = List.fold_left ( + ) 0 mdl in
  let module_parts = Array.map (fun (_, mdl) -> size mdl) modules in
  ( (r, modules),
    {
      Common.parts = List.sort_uniq (fun a b -> compare b a) (Array.to_list module_parts);
      capacity = r.tbar;
      cstar = r.cstar;
      module_parts;
      large = List.length r.large;
      smalls = r.smalls_by_size;
      part_space = 1;
      tbar = r.tbar;
      cap = None;
    } )

(* (4) per large class and size: exact cover of the job histogram *)
let cover (r, modules) l =
  List.mapi
    (fun li (_, hist, _) ->
      List.map
        (fun (size, count) ->
          let lhs = ref [] in
          Array.iteri
            (fun i (li', mdl) ->
              if li' = li then begin
                let cnt = List.length (List.filter (( = ) size) mdl) in
                if cnt > 0 then lhs := (Common.y_var l i, cnt) :: !lhs
              end)
            modules;
          Common.row_eq !lhs count)
        hist)
    r.large
  |> List.concat

let construct inst (r, modules) l sol =
  let n = Instance.n inst in
  (* module supply: per size, (large index, module, count) *)
  let supply = Hashtbl.create 16 in
  Array.iteri
    (fun i (li, mdl) ->
      let v = sol.(Common.y_var l i) in
      if v > 0 then begin
        let q = List.fold_left ( + ) 0 mdl in
        let prev = Option.value ~default:[] (Hashtbl.find_opt supply q) in
        Hashtbl.replace supply q ((li, mdl, ref v) :: prev)
      end)
    modules;
  let pop_module q =
    match Hashtbl.find_opt supply q with
    | Some entries -> (
        match List.find_opt (fun (_, _, r) -> !r > 0) entries with
        | Some (li, mdl, r) ->
            decr r;
            (li, mdl)
        | None -> failwith "Nonpreemptive_ptas: module supply exhausted")
    | None -> failwith "Nonpreemptive_ptas: no module of requested size"
  in
  let machines = Common.machines l sol in
  let assignment = Array.make n (-1) in
  let large = Array.of_list r.large in
  (* job queues per (large class, rounded size) are the buckets *)
  let place_gjob machine gj =
    List.iter (fun id -> assignment.(id) <- machine) gj.Common.members
  in
  Array.iteri
    (fun mi ki ->
      List.iter
        (fun q ->
          let li, mdl = pop_module q in
          let _, _, buckets = large.(li) in
          List.iter
            (fun size ->
              match Hashtbl.find_opt buckets size with
              | Some ({ contents = gj :: rest } as r) ->
                  r := rest;
                  place_gjob mi gj
              | _ -> failwith "Nonpreemptive_ptas: job bucket exhausted")
            mdl)
        l.Common.configs.(ki))
    machines;
  (* all large jobs must be placed *)
  Array.iter
    (fun (_, _, buckets) ->
      Hashtbl.iter
        (fun _ r -> if !r <> [] then failwith "Nonpreemptive_ptas: unplaced large jobs")
        buckets)
    large;
  Common.place_smalls l sol ~group:(Common.group_machines l machines) (fun mi gi ->
      match r.gclasses.(gi).Common.small_job with
      | Some gj -> place_gjob mi gj
      | None -> assert false);
  Array.iteri
    (fun j mi -> if mi < 0 then failwith (Printf.sprintf "Nonpreemptive_ptas: job %d unplaced" j))
    assignment;
  assignment

let regime =
  {
    Common.name = "nonpreemptive";
    whole_jobs = true;
    bounds =
      (fun inst ->
        let m = Instance.m inst in
        let avg = (Instance.total_load inst + m - 1) / m in
        let lb = Q.of_int (max (Instance.pmax inst) avg) in
        (* the 7/3 schedule's makespan is achievable, hence an accepted guess *)
        let approx_sched, _ = Approx.Nonpreemptive.solve inst in
        (lb, Q.of_int (Schedule.nonpreemptive_makespan inst approx_sched)));
    (* one job per machine: optimal with makespan pmax *)
    one_per_machine = Some (fun inst -> Array.init (Instance.n inst) Fun.id);
    round;
    cover;
    construct;
    validate =
      (fun inst sched -> Result.map ignore (Schedule.validate_nonpreemptive inst sched));
    guarantee;
  }

let solve p inst = Common.solve regime p inst
let solve_anytime p inst = Common.solve_anytime regime p inst
let oracle p inst t = Common.oracle regime p inst t

type abstract = {
  a_tbar : int;
  a_cstar : int;
  a_large_hists : (int * int) list list;
  a_smalls : (int * int) list;
}

let abstract p inst t =
  let rounded = round_instance p inst t in
  {
    a_tbar = rounded.tbar;
    a_cstar = rounded.cstar;
    a_large_hists = List.map (fun (_, hist, _) -> hist) rounded.large;
    a_smalls = List.map (fun (s, cls) -> (s, List.length cls)) rounded.smalls_by_size;
  }
