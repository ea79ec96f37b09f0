module Q = Rat

let guarantee (p : Common.param) t =
  let delta = Common.delta p in
  let tbar =
    Q.mul
      (Q.mul (Q.add Q.one (Q.mul (Q.of_int 3) delta)) (Q.add Q.one (Q.mul delta delta)))
      t
  in
  Q.add tbar (Q.add (Q.mul delta t) (Q.mul (Q.mul delta delta) t))

(* |L| = floor(Tbar / layer) + 1 with Tbar = (1+3delta)(1+delta^2)T and
   layers of height delta^2*T *)
let layers (p : Common.param) =
  let d = p.Common.d in
  ((d + 3) * ((d * d) + 1) / d) + 1

type rounded = {
  layer_q : Q.t;  (* delta^2*T, the layer height *)
  layers : int;  (* |L| *)
  cstar : int;
  gclasses : Common.gclass array;
  (* (class id, grouped jobs with their layer demands k_j) *)
  large : (int * (Common.gjob * int) list) list;
  smalls_by_size : (int * int list) list;  (* size in delta^2*T/c units *)
}

let round_instance (p : Common.param) inst t =
  let d = p.Common.d in
  let c = Instance.c inst in
  let layer_q = Q.div t (Q.of_int (d * d)) in
  let layers = layers p in
  let delta_t = Q.div t (Q.of_int d) in
  let gclasses = Common.group_classes inst ~delta_t in
  let large = ref [] and smalls = Hashtbl.create 8 in
  Array.iteri
    (fun u gc ->
      match gc.Common.small_job with
      | Some y ->
          let s =
            max 1
              (Bigint.to_int_exn
                 (Q.ceil (Q.div (Q.of_int y.Common.gsize) (Q.div layer_q (Q.of_int c)))))
          in
          let prev = Option.value ~default:[] (Hashtbl.find_opt smalls s) in
          Hashtbl.replace smalls s (u :: prev)
      | None ->
          let jobs =
            List.map
              (fun gj ->
                let k = Bigint.to_int_exn (Q.ceil (Q.div (Q.of_int gj.Common.gsize) layer_q)) in
                (gj, k))
              gc.Common.large_jobs
          in
          large := (u, jobs) :: !large)
    gclasses;
  {
    layer_q;
    layers;
    cstar = min (Instance.c inst) layers;
    gclasses;
    large = List.rev !large;
    smalls_by_size = Hashtbl.fold (fun s cls acc -> (s, cls) :: acc) smalls [];
  }

(* Configurations are multisets of module cardinalities (layers a class
   occupies on a machine), at most |L| in all; y variable (li, k) is the
   number of class li's modules of cardinality k. Space is counted in units
   u1 = delta^2*T/(c*d): a layer is c*d units, a small class of rounded size
   s (in delta^2*T/c units) is s*d units, and Tbar is c*(d+3)*(d^2+1)
   units. *)
let round (p : Common.param) inst t =
  let r = round_instance p inst t in
  let d = p.Common.d and c = Instance.c inst in
  let cards = List.init r.layers (fun i -> i + 1) in
  ( r,
    {
      Common.parts = cards;
      capacity = r.layers;
      cstar = r.cstar;
      module_parts = Array.of_list (List.concat_map (fun _ -> cards) r.large);
      large = List.length r.large;
      smalls = List.map (fun (s, cls) -> (s * d, cls)) r.smalls_by_size;
      part_space = c * d;
      tbar = c * (d + 3) * ((d * d) + 1);
      cap = None;
    } )

let y_var l rounded li k = Common.y_var l ((li * rounded.layers) + k - 1)

(* (4) per large class: total layer demand covered by its modules *)
let cover rounded l =
  List.mapi
    (fun li (_, jobs) ->
      let demand = List.fold_left (fun acc (_, k) -> acc + k) 0 jobs in
      Common.row_eq
        (List.init rounded.layers (fun i -> (y_var l rounded li (i + 1), i + 1)))
        demand)
    rounded.large

(* ---------------------------------------------------------------- *)
(* Realization: symmetric solution -> concrete layer sets -> flow-matched
   job pieces -> preemptive schedule. *)

let construct inst rounded l sol =
  let m = Instance.m inst in
  let nlayers = rounded.layers in
  let large = Array.of_list rounded.large in
  let nlarge = Array.length large in
  (* module supply per (class, cardinality) *)
  let supply = Array.make_matrix nlarge (nlayers + 1) 0 in
  for li = 0 to nlarge - 1 do
    for k = 1 to nlayers do
      supply.(li).(k) <- sol.(y_var l rounded li k)
    done
  done;
  let machines = Common.machines l sol in
  if Array.length machines <> m then failwith "Preemptive_ptas: machine count mismatch";
  (* assign modules (class, cardinality) to machines and choose layer sets
     greedily, balancing each class's per-layer slot supply *)
  let slot_count = Array.make_matrix nlarge nlayers 0 in
  (* per machine: list of (class, layer list) *)
  let machine_modules = Array.make (Array.length machines) [] in
  Array.iteri
    (fun mi ki ->
      let used = Array.make nlayers false in
      (* larger modules first: they have the least freedom *)
      let cfg = List.sort (fun a b -> compare b a) l.Common.configs.(ki) in
      List.iter
        (fun k ->
          (* pick any class with remaining modules of cardinality k *)
          let li = ref (-1) in
          for cand = 0 to nlarge - 1 do
            if !li < 0 && supply.(cand).(k) > 0 then li := cand
          done;
          if !li < 0 then failwith "Preemptive_ptas: module supply exhausted";
          supply.(!li).(k) <- supply.(!li).(k) - 1;
          (* choose the k unused layers with the smallest current supply *)
          let candidates =
            List.init nlayers Fun.id
            |> List.filter (fun l -> not used.(l))
            |> List.sort (fun a b ->
                   compare (slot_count.(!li).(a), a) (slot_count.(!li).(b), b))
          in
          let chosen = List.filteri (fun i _ -> i < k) candidates in
          if List.length chosen < k then failwith "Preemptive_ptas: not enough layers";
          List.iter
            (fun l ->
              used.(l) <- true;
              slot_count.(!li).(l) <- slot_count.(!li).(l) + 1)
            chosen;
          machine_modules.(mi) <- (!li, chosen) :: machine_modules.(mi))
        cfg)
    machines;
  (* flow per class: grouped jobs (capacity k_j) -> layers (1 per job) ->
     sink (slot_count); integral max flow = total demand or the realization
     failed (Theorem 18 / Lemma 16 machinery) *)
  let piece_assignment = Array.make nlarge [||] in
  (* piece_assignment.(li).(layer) = gjob queue assigned to that layer *)
  Array.iteri
    (fun li (_, jobs) ->
      let jobs = Array.of_list jobs in
      let njobs = Array.length jobs in
      let demand = Array.fold_left (fun acc (_, k) -> acc + k) 0 jobs in
      let source = njobs + nlayers and sink = njobs + nlayers + 1 in
      let g = Flow.create (njobs + nlayers + 2) in
      Array.iteri
        (fun ji (_, k) -> ignore (Flow.add_edge g ~src:source ~dst:ji ~cap:k))
        jobs;
      let edge_ids = Array.make_matrix njobs nlayers (-1) in
      for ji = 0 to njobs - 1 do
        for l = 0 to nlayers - 1 do
          if slot_count.(li).(l) > 0 then
            edge_ids.(ji).(l) <- Flow.add_edge g ~src:ji ~dst:(njobs + l) ~cap:1
        done
      done;
      for l = 0 to nlayers - 1 do
        if slot_count.(li).(l) > 0 then
          ignore (Flow.add_edge g ~src:(njobs + l) ~dst:sink ~cap:slot_count.(li).(l))
      done;
      let v = Flow.max_flow g ~source ~sink in
      if v <> demand then
        failwith
          (Printf.sprintf "Preemptive_ptas: layer realization failed for class %d (%d/%d)"
             (fst large.(li)) v demand);
      let per_layer = Array.make nlayers [] in
      for ji = 0 to njobs - 1 do
        for l = 0 to nlayers - 1 do
          if edge_ids.(ji).(l) >= 0 && Flow.flow_on g edge_ids.(ji).(l) = 1 then
            per_layer.(l) <- ji :: per_layer.(l)
        done
      done;
      piece_assignment.(li) <- per_layer)
    large;
  (* distribute the (class, layer) jobs onto the machine slots; collect per
     grouped job its (machine, layer) slots *)
  let gjob_slots : (int * int, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  (* key (li, ji) *)
  let cursor = Array.make_matrix nlarge nlayers [] in
  for li = 0 to nlarge - 1 do
    if Array.length piece_assignment.(li) > 0 then
      for l = 0 to nlayers - 1 do
        cursor.(li).(l) <- piece_assignment.(li).(l)
      done
  done;
  Array.iteri
    (fun mi modules ->
      List.iter
        (fun (li, layers_chosen) ->
          List.iter
            (fun l ->
              match cursor.(li).(l) with
              | ji :: rest ->
                  cursor.(li).(l) <- rest;
                  let key = (li, ji) in
                  let r =
                    match Hashtbl.find_opt gjob_slots key with
                    | Some r -> r
                    | None ->
                        let r = ref [] in
                        Hashtbl.replace gjob_slots key r;
                        r
                  in
                  r := (mi, l) :: !r
              | [] -> failwith "Preemptive_ptas: slot/piece mismatch")
            layers_chosen)
        modules)
    machine_modules;
  (* build the schedule: fill each grouped job's members sequentially into
     its slots ordered by layer *)
  let sched : Schedule.ppiece list ref array = Array.init m (fun _ -> ref []) in
  let layer_q = rounded.layer_q in
  Array.iteri
    (fun li (_, jobs) ->
      let jobs_arr = Array.of_list jobs in
      Array.iteri
        (fun ji (gj, _) ->
          let slots =
            match Hashtbl.find_opt gjob_slots (li, ji) with
            | Some r -> List.sort (fun (_, a) (_, b) -> compare a b) !r
            | None -> []
          in
          let members = ref (List.map (fun id -> (id, Q.of_int (Instance.job inst id).Instance.p))
                               (List.sort compare gj.Common.members)) in
          List.iter
            (fun (mi, l) ->
              let base = Q.mul (Q.of_int l) layer_q in
              let room = ref layer_q in
              let offset = ref Q.zero in
              let continue_fill = ref true in
              while !continue_fill && Q.sign !room > 0 do
                match !members with
                | [] -> continue_fill := false
                | (id, remaining) :: rest ->
                    let take = Q.min remaining !room in
                    sched.(mi) :=
                      { Schedule.pjob = id; start = Q.add base !offset; len = take }
                      :: !(sched.(mi));
                    offset := Q.add !offset take;
                    room := Q.sub !room take;
                    let rem' = Q.sub remaining take in
                    if Q.sign rem' = 0 then members := rest
                    else members := (id, rem') :: rest
              done)
            slots;
          if !members <> [] then failwith "Preemptive_ptas: grouped job did not fit its slots")
        jobs_arr)
    large;
  (* small classes: round robin within (h,b) groups, filling time gaps *)
  (* free intervals per machine: unused layers, then open-ended tail *)
  let machine_used_layers = Array.make m [] in
  Array.iteri
    (fun mi modules ->
      machine_used_layers.(mi) <- List.concat_map snd modules)
    machine_modules;
  let place_small mi gj =
    let used = Array.make nlayers false in
    List.iter (fun l -> used.(l) <- true) machine_used_layers.(mi);
    (* also account for smalls already placed on this machine: track via a
       per-machine cursor list of free intervals consumed so far *)
    let members = ref (List.map (fun id -> (id, Q.of_int (Instance.job inst id).Instance.p))
                         (List.sort compare gj.Common.members)) in
    (* existing small pieces on this machine beyond the layer grid *)
    let existing = !(sched.(mi)) in
    (* compute free intervals: within layers not used by large modules and
       not already holding small pieces; simplest correct approach: collect
       all occupied intervals and scan. *)
    let occupied =
      List.map (fun pc -> (pc.Schedule.start, Q.add pc.Schedule.start pc.Schedule.len)) existing
      |> List.sort (fun (a, _) (b, _) -> Q.compare a b)
    in
    (* merge into a simple cursor walk: we fill from time 0 upward, skipping
       occupied intervals and layers used by large modules *)
    let layer_busy l = used.(l) in
    let rec next_free t =
      (* skip any occupied interval or busy layer containing t *)
      let in_layer = Q.floor (Q.div t layer_q) in
      let li = Bigint.to_int_exn in_layer in
      if li < nlayers && layer_busy li then
        next_free (Q.mul (Q.of_int (li + 1)) layer_q)
      else
        match
          List.find_opt (fun (s, e) -> Q.(s <= t) && Q.(t < e)) occupied
        with
        | Some (_, e) -> next_free e
        | None -> t
    in
    let cursor = ref (next_free Q.zero) in
    while !members <> [] do
      let t = !cursor in
      (* available room until the next obstacle *)
      let li = Bigint.to_int_exn (Q.floor (Q.div t layer_q)) in
      let layer_end =
        if li < nlayers then Q.mul (Q.of_int (li + 1)) layer_q
        else Q.add t (Q.of_int (Instance.total_load inst))
      in
      let next_occ =
        List.fold_left
          (fun acc (s, _) -> if Q.(s > t) then Q.min acc s else acc)
          layer_end occupied
      in
      let room = Q.sub next_occ t in
      if Q.sign room <= 0 then cursor := next_free (Q.add t layer_q)
      else begin
        match !members with
        | [] -> ()
        | (id, remaining) :: rest ->
            let take = Q.min remaining room in
            sched.(mi) := { Schedule.pjob = id; start = t; len = take } :: !(sched.(mi));
            let rem' = Q.sub remaining take in
            if Q.sign rem' = 0 then members := rest else members := (id, rem') :: rest;
            cursor := next_free (Q.add t take)
      end
    done
  in
  Common.place_smalls l sol ~group:(Common.group_machines l machines) (fun mi u ->
      match rounded.gclasses.(u).Common.small_job with
      | Some gj -> place_small mi gj
      | None -> assert false);
  Array.map (fun r -> List.rev !r) sched

let regime =
  {
    Common.name = "preemptive";
    whole_jobs = true;
    bounds =
      (fun inst ->
        (* the preemptive 2-approximation provides an achievable upper bound *)
        let approx_sched, _ = Approx.Preemptive.solve inst in
        (Bounds.lb_preemptive inst, Schedule.preemptive_makespan approx_sched));
    (* one job per machine is an optimal preemptive schedule *)
    one_per_machine =
      Some
        (fun inst ->
          Array.init (Instance.n inst) (fun j ->
              [ { Schedule.pjob = j;
                  start = Q.zero;
                  len = Q.of_int (Instance.job inst j).Instance.p } ]));
    round;
    cover;
    construct;
    validate =
      (fun inst sched -> Result.map ignore (Schedule.validate_preemptive inst sched));
    guarantee;
  }

let solve p inst = Common.solve regime p inst
let solve_anytime p inst = Common.solve_anytime regime p inst
let oracle p inst t = Common.oracle regime p inst t
