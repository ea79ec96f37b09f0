module Q = Rat

(* Beyond this many machines the Theorem 11 machinery is used: the
   configuration ILP gets the cardinality cap and the output uses compressed
   blocks. *)
let explicit_limit = 4096

(* Tbar + delta*T = (1 + 5 delta) T *)
let guarantee (p : Common.param) t =
  Q.mul (Q.add Q.one (Q.mul (Q.of_int 5) (Common.delta p))) t

(* All sizes below live in "base units" of delta^2*T/c, so every quantity in
   the ILP is an integer: modules have size l*c for l in [d, d(d+4)], the
   makespan bound Tbar is c*d*(d+4), small classes have sizes in [1, c*d]. *)

type rounded = {
  unit_q : Q.t;  (* delta^2*T/c as a rational *)
  tbar : int;  (* Tbar in base units *)
  cstar : int;  (* parts per configuration *)
  module_sizes : int list;  (* descending, base units *)
  large : (int * int) list;  (* (class, rounded size in base units) *)
  smalls_by_size : (int * int list) list;  (* (rounded size, class ids) *)
}

let round_instance (p : Common.param) inst t =
  let d = p.Common.d in
  let c = Instance.c inst in
  let unit_q = Q.div t (Q.of_int (c * d * d)) in
  let tbar = c * d * (d + 4) in
  let delta_t = Q.div t (Q.of_int d) in
  let loads = Instance.class_load inst in
  let large = ref [] and smalls = Hashtbl.create 8 in
  Array.iteri
    (fun u pu ->
      let pu_q = Q.of_int pu in
      if Q.(pu_q > delta_t) then begin
        (* multiples of delta^2*T = c base units *)
        let k = Bigint.to_int_exn (Q.ceil (Q.div pu_q (Q.mul unit_q (Q.of_int c)))) in
        large := (u, k * c) :: !large
      end
      else begin
        let s = Bigint.to_int_exn (Q.ceil (Q.div pu_q unit_q)) in
        let s = max 1 s in
        let prev = Option.value ~default:[] (Hashtbl.find_opt smalls s) in
        Hashtbl.replace smalls s (u :: prev)
      end)
    loads;
  let module_sizes = List.init (((d * (d + 4)) - d) + 1) (fun i -> (d + i) * c) |> List.rev in
  {
    unit_q;
    tbar;
    cstar = min (d + 4) c;
    module_sizes;
    large = List.rev !large;
    smalls_by_size = Hashtbl.fold (fun s cls acc -> (s, cls) :: acc) smalls [];
  }

(* Configurations are multisets of module sizes, total <= tbar, count <=
   c*; y variable (li, q) is the number of modules of size q class li is cut
   into. *)
let round p inst t =
  let r = round_instance p inst t in
  let nclasses = Instance.num_classes inst in
  ( r,
    {
      Common.parts = r.module_sizes;
      capacity = r.tbar;
      cstar = r.cstar;
      module_parts = Array.of_list (List.concat_map (fun _ -> r.module_sizes) r.large);
      large = List.length r.large;
      smalls = r.smalls_by_size;
      part_space = 1;
      tbar = r.tbar;
      cap =
        (if Instance.m inst > explicit_limit then
           Some ((nclasses * (nclasses - 1) / 2) + nclasses)
         else None);
    } )

let y_var l rounded li qi = Common.y_var l ((li * List.length rounded.module_sizes) + qi)

(* (4) each large class exactly covered by its modules *)
let cover rounded l =
  List.mapi
    (fun li (_, size) ->
      Common.row_eq
        (List.mapi (fun qi q -> (y_var l rounded li qi, q)) rounded.module_sizes)
        size)
    rounded.large

(* ---------------------------------------------------------------- *)
(* Schedule construction from an ILP witness. *)

(* Assignment of large-class modules to the module slots of the materialized
   machines: any class with remaining modules of the right size will do. *)
let pop_module supply q =
  match Hashtbl.find_opt supply q with
  | Some ((li, cnt) :: rest) ->
      if cnt = 1 then Hashtbl.replace supply q rest
      else Hashtbl.replace supply q ((li, cnt - 1) :: rest);
      li
  | _ -> failwith "Splittable_ptas: module supply exhausted (ILP inconsistency)"

let construct inst rounded l sol =
  let m = Instance.m inst in
  let large = Array.of_list rounded.large in
  let qmax = List.hd rounded.module_sizes in
  (* module supply per size from the y variables *)
  let supply = Hashtbl.create 16 in
  List.iteri
    (fun qi q ->
      let entries = ref [] in
      Array.iteri
        (fun li _ ->
          let v = sol.(y_var l rounded li qi) in
          if v > 0 then entries := (li, v) :: !entries)
        large;
      Hashtbl.replace supply q !entries)
    rounded.module_sizes;
  (* Split configurations into the materialized ones and (for the compressed
     path) the trivial full configuration handled as blocks. *)
  let full_config_count = ref 0 in
  let explicit_cfgs = ref [] in
  Array.iteri
    (fun ki k ->
      let count = sol.(ki) in
      if count > 0 && k <> [] then
        if k = [ qmax ] && count > explicit_limit then full_config_count := count
        else
          for _ = 1 to count do
            explicit_cfgs := (ki, k) :: !explicit_cfgs
          done)
    l.Common.configs;
  let explicit_cfgs = Array.of_list !explicit_cfgs in
  if Array.length explicit_cfgs > explicit_limit then
    failwith "Splittable_ptas: explicit machine bound exceeded";
  (* machine numbering: explicit machines first, then the full blocks, then
     empty machines *)
  let n_explicit = Array.length explicit_cfgs in
  (* rounded class loads per explicit machine *)
  let machine_loads = Array.make n_explicit [] in
  Array.iteri
    (fun mi (_, k) ->
      List.iter (fun q -> machine_loads.(mi) <- (pop_module supply q, q) :: machine_loads.(mi)) k)
    explicit_cfgs;
  (* leftover full modules become per-class blocks *)
  let block_specs = ref [] in
  (* (large idx, machine count) *)
  let cursor = ref n_explicit in
  (match Hashtbl.find_opt supply qmax with
  | Some entries ->
      List.iter
        (fun (li, cnt) ->
          block_specs := (li, !cursor, cnt) :: !block_specs;
          cursor := !cursor + cnt)
        entries;
      Hashtbl.replace supply qmax []
  | None -> ());
  let used_full = List.fold_left (fun acc (_, _, cnt) -> acc + cnt) 0 !block_specs in
  if used_full <> !full_config_count then
    failwith "Splittable_ptas: full-block accounting mismatch";
  (* any other leftover supply is an ILP inconsistency *)
  Hashtbl.iter
    (fun _ entries -> if entries <> [] then failwith "Splittable_ptas: unplaced modules")
    supply;
  (* ---- small classes: round robin inside each (h,b) machine group ---- *)
  (* group -> machines (explicit ids; the full-block range forms one group) *)
  let explicit_group = Common.group_machines l (Array.map fst explicit_cfgs) in
  let find_group hb =
    let g = ref (-1) in
    Array.iteri (fun i hb' -> if hb' = hb then g := i) l.Common.hb_groups;
    !g
  in
  let full_group = if !full_config_count > 0 then find_group (qmax, 1) else -1 in
  (* empty machines form the (0,0) group *)
  let empty_group = find_group (0, 0) in
  let empty_start = !cursor in
  let small_extra : (int, (int * Q.t) list) Hashtbl.t = Hashtbl.create 16 in
  let add_small machine cls load =
    let prev = Option.value ~default:[] (Hashtbl.find_opt small_extra machine) in
    Hashtbl.replace small_extra machine ((cls, load) :: prev)
  in
  let group hbi =
    if hbi = full_group then (!full_config_count, fun i -> n_explicit + i)
    else if hbi = empty_group then (m - empty_start, fun i -> empty_start + i)
    else explicit_group hbi
  in
  let class_load = Instance.class_load inst in
  Common.place_smalls l sol ~group (fun machine cls ->
      add_small machine cls (Q.of_int class_load.(cls)));
  (* ---- shrink rounded large loads back to the original sizes ---- *)
  let remaining = Array.map (fun (u, _) -> Q.of_int class_load.(u)) large in
  let explicit_loads = Array.make n_explicit [] in
  Array.iteri
    (fun mi modules ->
      List.iter
        (fun (li, q) ->
          let cap = Q.mul (Q.of_int q) rounded.unit_q in
          let take = Q.min cap remaining.(li) in
          if Q.sign take > 0 then begin
            remaining.(li) <- Q.sub remaining.(li) take;
            let u = fst large.(li) in
            explicit_loads.(mi) <- (u, take) :: explicit_loads.(mi)
          end)
        (List.rev modules))
      machine_loads;
  (* blocks: uniform per-machine loads of one class; the final partial
     machine becomes an explicit entry *)
  let blocks = ref [] in
  List.iter
    (fun (li, start, cnt) ->
      let u = fst large.(li) in
      let cap = Q.mul (Q.of_int qmax) rounded.unit_q in
      let rem = remaining.(li) in
      let full = Bigint.to_int_exn (Q.floor (Q.div rem cap)) in
      let full = min full cnt in
      if full > 0 then
        blocks := { Schedule.cls = u; m_start = start; m_count = full; per_machine = cap } :: !blocks;
      let leftover = Q.sub rem (Q.mul (Q.of_int full) cap) in
      remaining.(li) <- Q.zero;
      if Q.sign leftover > 0 then begin
        if full >= cnt then failwith "Splittable_ptas: block overflow";
        add_small (start + full) u leftover
      end)
    !block_specs;
  Array.iteri
    (fun li r ->
      if Q.sign r > 0 then failwith (Printf.sprintf "Splittable_ptas: class %d under-placed" (fst large.(li))))
    remaining;
  (* ---- assemble ---- *)
  let explicit_tbl : (int, (int * Q.t) list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun mi loads -> if loads <> [] then Hashtbl.replace explicit_tbl mi loads)
    explicit_loads;
  Hashtbl.iter
    (fun machine loads ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt explicit_tbl machine) in
      Hashtbl.replace explicit_tbl machine (loads @ prev))
    small_extra;
  (* merge duplicate classes per machine *)
  let explicit_machines =
    Hashtbl.fold
      (fun machine loads acc ->
        let tbl = Hashtbl.create 4 in
        List.iter
          (fun (u, l) ->
            Hashtbl.replace tbl u (Q.add l (Option.value ~default:Q.zero (Hashtbl.find_opt tbl u))))
          loads;
        let merged = Hashtbl.fold (fun u l acc -> if Q.sign l > 0 then (u, l) :: acc else acc) tbl [] in
        if merged = [] then acc else (machine, merged) :: acc)
      explicit_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { Schedule.blocks = List.rev !blocks; explicit_machines }

let regime =
  {
    Common.name = "splittable";
    whole_jobs = false;
    bounds = (fun inst -> (Bounds.lb_splittable inst, Bounds.ub_splittable inst));
    one_per_machine = None;
    round;
    cover;
    construct;
    validate =
      (fun inst sched -> Result.map ignore (Schedule.validate_splittable inst sched));
    guarantee;
  }

let solve p inst = Common.solve regime p inst
let solve_anytime p inst = Common.solve_anytime regime p inst
let oracle p inst t = Common.oracle regime p inst t
