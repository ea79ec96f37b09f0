module Q = Rat

type param = { d : int }

let param d =
  if d < 1 then invalid_arg "Ptas.Common.param: need 1/delta >= 1";
  { d }

let delta p = Q.of_ints 1 p.d

(* Cancellation checkpoints: configuration enumeration is the hot DFS,
   one guess probe of the dual-approximation search is the coarse site. *)
let chk_enum = Ccs_resil.Deadline.site ~hot:true "ptas.enum"
let chk_guess = Ccs_resil.Deadline.site "ptas.guess"

exception Too_many

(* Node budget of one enumeration: the configuration spaces of Section 4 are
   exponential in 1/delta, and a space this large is out of practical reach. *)
let max_enum_nodes = 200_000

let multisets ~parts ~max_sum ~max_count () =
  let parts = List.sort_uniq (fun a b -> compare b a) parts in
  (* The node budget is shared across parallel branches through one atomic
     counter: the DFS visits exactly the same node set at any pool size, so
     Too_many fires under exactly the same inputs. *)
  let count = Atomic.make 0 in
  (* DFS over parts in descending order; [current] is built descending. A
     node is one multiset, emitted once; its children append one more copy
     of a part no larger than its last one ([parts] is the list of those
     parts), so every multiset has exactly one path from the root. *)
  let explore parts0 current0 sum0 cnt0 =
    let out = ref [] in
    let rec go parts current sum cnt =
      Ccs_resil.Deadline.check chk_enum;
      if Atomic.fetch_and_add count 1 >= max_enum_nodes then raise Too_many;
      out := List.rev current :: !out;
      if cnt < max_count then
        let rec branch = function
          | [] -> ()
          | v :: rest as ps ->
              if sum + v <= max_sum then go ps (v :: current) (sum + v) (cnt + 1);
              branch rest
        in
        branch parts
    in
    go parts0 current0 sum0 cnt0;
    !out
  in
  (* Per-guess enumeration is the widest flat fan-out the PTASs have: split
     on the multiplicity of the largest part (branch j fixes j copies, then
     enumerates over the remaining part values). The branches partition the
     sequential DFS's nodes (branch j holds the multisets with exactly j
     copies of the largest part), so the shared counter reaches the same
     total at any pool size. *)
  let pieces =
    match parts with
    (* Only fan out on part lists wide enough that each branch subtree
       amortizes the batch overhead (narrow spaces, i.e. coarse delta, run
       the plain DFS), and only when cores are present. Both gates depend on
       the input and the machine, never on timing, and either path yields
       the same sorted list — so the enumeration stays deterministic. *)
    | v0 :: rest when Ccs_par.effective_jobs () > 1 && v0 > 0 && List.length rest >= 6 ->
        let jmax = min max_count (max_sum / v0) in
        Ccs_par.parallel_map
          (fun j -> explore rest (List.init j (fun _ -> v0)) (j * v0) j)
          (Array.init (jmax + 1) (fun j -> j))
        |> Array.to_list |> List.concat
    | _ -> explore parts [] 0 0
  in
  List.sort compare pieces

let bounded_multisets ~parts ~max_sum ~max_count () =
  let parts = List.sort (fun (a, _) (b, _) -> compare b a) parts in
  let out = ref [] in
  let count = ref 0 in
  (* Same DFS as [multisets], with each part's remaining multiplicity
     carried along. *)
  let rec go parts current sum cnt =
    Ccs_resil.Deadline.check chk_enum;
    incr count;
    if !count > max_enum_nodes then raise Too_many;
    out := List.rev current :: !out;
    if cnt < max_count then
      let rec branch = function
        | [] -> ()
        | (v, mult) :: rest ->
            if mult > 0 && sum + v <= max_sum then
              go ((v, mult - 1) :: rest) (v :: current) (sum + v) (cnt + 1);
            branch rest
      in
      branch parts
  in
  go parts [] 0 0;
  List.sort compare !out

exception Budget_exceeded

let m_guesses = Ccs_obs.Metrics.counter "ptas.guesses"
let m_ilp_calls = Ccs_obs.Metrics.counter "ptas.ilp_calls"
let h_ilp_vars = Ccs_obs.Metrics.histogram "ptas.ilp_vars"
let h_large = Ccs_obs.Metrics.histogram "ptas.large_classes"
let h_small_groups = Ccs_obs.Metrics.histogram "ptas.small_size_groups"
let h_configs = Ccs_obs.Metrics.histogram "ptas.configs"

let observe_rounding ~large ~small_groups ~configs =
  Ccs_obs.Metrics.observe h_large (float_of_int large);
  Ccs_obs.Metrics.observe h_small_groups (float_of_int small_groups);
  Ccs_obs.Metrics.observe h_configs (float_of_int configs)

type row = { coeffs : (int * int) list; cmp : Lp.cmp; rhs : int }

let row_eq coeffs rhs = { coeffs; cmp = Lp.Eq; rhs }
let row_le coeffs rhs = { coeffs; cmp = Lp.Le; rhs }

(* Branch & bound node budget of one configuration ILP. *)
let max_nodes = 50_000

(* Integer feasibility of [rows] over variables in [0, inf): a witness
   assignment, or [None] iff provably infeasible. Raises [Budget_exceeded]
   after [max_nodes] nodes: the answer is unknown, and silently reporting
   "infeasible" would break the PTAS completeness guarantee. *)
let solve_int_feasibility ?warm ?basis_out ~nvars rows =
  let to_q = Q.of_int in
  (* Row conversion (duplicate merging, int -> rational lifting) is flat and
     independent per row; wide configuration IPs ride the pool, small ones
     stay sequential — per-row work is microseconds, so a narrow batch
     costs more in wakeups than it saves. *)
  let convert r =
    let coeffs =
      (* merge duplicate variable indices *)
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (j, v) ->
          Hashtbl.replace tbl j (v + Option.value ~default:0 (Hashtbl.find_opt tbl j)))
        r.coeffs;
      Hashtbl.fold (fun j v acc -> if v = 0 then acc else (j, to_q v) :: acc) tbl []
    in
    Lp.constr coeffs r.cmp (to_q r.rhs)
  in
  let rows_arr = Array.of_list rows in
  let constraints =
    if Array.length rows_arr >= 64 then
      Array.to_list (Ccs_par.parallel_map convert rows_arr)
    else Array.to_list (Array.map convert rows_arr)
  in
  let lp = Lp.problem ~nvars ~objective:(Array.make nvars Q.zero) constraints in
  Ccs_obs.Metrics.incr m_ilp_calls;
  Ccs_obs.Metrics.observe h_ilp_vars (float_of_int nvars);
  Ccs_obs.Span.with_ "ptas.ilp"
    ~fields:
      [ Ccs_obs.Log.int "nvars" nvars;
        Ccs_obs.Log.int "rows" (List.length constraints) ]
  @@ fun () ->
  match Ilp.solve ~max_nodes ~feasibility:true ?warm ?basis_out (Ilp.all_integer lp) with
  | Ilp.Optimal { solution; _ } ->
      Some (Array.map (fun v -> Bigint.to_int_exn (Q.num v)) solution)
  | Ilp.Infeasible -> None
  | Ilp.Node_limit -> raise Budget_exceeded
  | Ilp.Unbounded -> None

(* Live progress of a [grid_search], for recovering a certified partial
   answer when the search is cancelled mid-flight: [accepted] is the best
   (lowest-guess) witness produced so far, [rejected] the highest guess the
   oracle has refuted — by the dual-approximation argument a certificate
   that no schedule of makespan [rejected] exists for the rounded
   relaxation, hence a lower-bound witness for the search. Updated by the
   coordinating domain only (between probe rounds). *)
type 'a progress = {
  mutable accepted : ('a * Q.t) option;
  mutable rejected : Q.t option;
}

let progress () = { accepted = None; rejected = None }

type 'a anytime = {
  result : ('a * Q.t) option;
  refuted : Q.t option;
  complete : bool;
}

let grid_search ?progress:prog ~lb ~ub ~delta ~oracle () =
  if Q.(ub < lb) then invalid_arg "geometric_search: ub < lb";
  Ccs_obs.Span.with_ "ptas.binary_search"
    ~fields:
      [ Ccs_obs.Log.str "lb" (Q.to_string lb); Ccs_obs.Log.str "ub" (Q.to_string ub) ]
  @@ fun () ->
  let oracle t =
    Ccs_resil.Deadline.check chk_guess;
    Ccs_obs.Metrics.incr m_guesses;
    let answer = oracle t in
    Ccs_obs.Log.debug (fun log ->
        log
          ~fields:
            [ Ccs_obs.Log.str "t" (Q.to_string t);
              Ccs_obs.Log.bool "accepted" (answer <> None) ]
          "ptas.guess");
    answer
  in
  let step = Q.add Q.one delta in
  (* grid index of the first point >= ub *)
  let rec grid_size i t = if Q.(t >= ub) then i else grid_size (i + 1) (Q.mul t step) in
  let imax = grid_size 0 lb in
  let point i =
    let rec go acc k = if k = 0 then acc else go (Q.mul acc step) (k - 1) in
    Q.min ub (go lb i)
  in
  (* Search the smallest accepted index by k-section: each round probes the
     current interval at [min jobs width] interior points concurrently, then
     narrows exactly as the sequential scan of those answers would. With one
     job the probe point is [(lo + hi) / 2] — classic bisection, unchanged
     from the sequential implementation — and because the oracle is monotone
     (see the interface), every pool size converges to the same smallest
     accepted grid index, making seeded runs bit-identical at any --jobs. *)
  let record_accept w t =
    match prog with None -> () | Some p -> p.accepted <- Some (w, t)
  in
  let record_reject t =
    match prog with
    | None -> ()
    | Some p -> (
        match p.rejected with
        | Some r when Q.(r >= t) -> ()
        | _ -> p.rejected <- Some t)
  in
  match oracle (point imax) with
  | None -> failwith "geometric_search: oracle rejected the upper bound"
  | Some witness_ub ->
      record_accept witness_ub (point imax);
      let best = ref (witness_ub, point imax) in
      let lo = ref 0 and hi = ref imax in
      while !lo < !hi do
        let width = !hi - !lo in
        (* k-section does ~k/log2(k+1) times the probe work of bisection, so
           cap the fan-out by the cores actually present: on a single-core
           host a 4-domain pool degenerates to plain bisection instead of
           burning 1.7x the oracle calls. Any k lands on the same smallest
           accepted index (the oracle is monotone and deterministic), so
           this cap never changes the result, only the wall clock. *)
        let k = min width (Ccs_par.effective_jobs ()) in
        let probes =
          Array.init k (fun i -> !lo + (width * (i + 1) / (k + 1)))
          |> Array.to_list |> List.sort_uniq compare |> Array.of_list
        in
        let answers = Ccs_par.parallel_map (fun i -> oracle (point i)) probes in
        (* lowest accepted probe bounds from above; by monotonicity every
           rejected probe below it bounds from below *)
        let accepted = ref None in
        Array.iteri
          (fun j a ->
            match (a, !accepted) with
            | Some w, None -> accepted := Some (probes.(j), w)
            | _ -> ())
          answers;
        match !accepted with
        | Some (i, w) ->
            best := (w, point i);
            record_accept w (point i);
            hi := i;
            Array.iteri
              (fun j a ->
                if a = None && probes.(j) < i then begin
                  record_reject (point probes.(j));
                  lo := max !lo (probes.(j) + 1)
                end)
              answers
        | None ->
            let last = probes.(Array.length probes - 1) in
            record_reject (point last);
            lo := last + 1
      done;
      !best

let geometric_search ~lb ~ub ~delta ~oracle () = grid_search ~lb ~ub ~delta ~oracle ()

(* ---------------------------------------------------------------- *)
(* Lemma 12 (and Lemma 15) grouping, shared by the non-preemptive and the
   preemptive regimes. *)

type gjob = { gsize : int; members : int list }
type gclass = { large_jobs : gjob list; small_job : gjob option }

(* Grouping of one class at guess T; [jobs] are (id, size) and [delta_t] is
   delta*T. *)
let group_class ~delta_t jobs =
  let is_small (_, p) = Q.(Q.of_int p < delta_t) in
  let smalls, bigs = List.partition is_small jobs in
  (* bundle smalls into packets of size in [delta*T, 2 delta*T) *)
  let packets = ref [] in
  let cur_ids = ref [] and cur_sz = ref 0 in
  List.iter
    (fun (id, p) ->
      cur_ids := id :: !cur_ids;
      cur_sz := !cur_sz + p;
      if Q.(Q.of_int !cur_sz >= delta_t) then begin
        packets := { gsize = !cur_sz; members = !cur_ids } :: !packets;
        cur_ids := [];
        cur_sz := 0
      end)
    smalls;
  let leftover =
    if !cur_sz > 0 then Some { gsize = !cur_sz; members = !cur_ids } else None
  in
  let big_gjobs = List.map (fun (id, p) -> { gsize = p; members = [ id ] }) bigs in
  let all_large = big_gjobs @ !packets in
  match (leftover, all_large) with
  | None, [] -> assert false (* classes are non-empty *)
  | None, large -> { large_jobs = large; small_job = None }
  | Some y, [] -> { large_jobs = []; small_job = Some y }
  | Some y, j :: rest ->
      (* merge the leftover into an arbitrary other job of the class *)
      let merged = { gsize = j.gsize + y.gsize; members = j.members @ y.members } in
      { large_jobs = merged :: rest; small_job = None }

let group_classes inst ~delta_t =
  let size j = (Instance.job inst j).Instance.p in
  Array.map
    (fun ids -> group_class ~delta_t (List.map (fun j -> (j, size j)) ids))
    (Instance.class_jobs inst)

(* ---------------------------------------------------------------- *)
(* The configuration ILP every regime decides. *)

type shape = {
  parts : int list;
  capacity : int;
  cstar : int;
  module_parts : int array;
  large : int;
  smalls : (int * int list) list;
  part_space : int;
  tbar : int;
  cap : int option;
}

type layout = {
  shape : shape;
  configs : int list array;
  hb_of_config : int array;
  hb_groups : (int * int) array;
  nvars : int;
}

let hb_group configs =
  let tbl = Hashtbl.create 16 in
  let groups = ref [] in
  let hb_of_config =
    Array.map
      (fun k ->
        let h = List.fold_left ( + ) 0 k and b = List.length k in
        match Hashtbl.find_opt tbl (h, b) with
        | Some i -> i
        | None ->
            let i = Hashtbl.length tbl in
            Hashtbl.replace tbl (h, b) i;
            groups := (h, b) :: !groups;
            i)
      configs
  in
  (hb_of_config, Array.of_list (List.rev !groups))

(* Variables are numbered x (one per configuration), then y (one per
   module), then w (per small size, one per (h,b) group). *)
let layout shape =
  let configs =
    Array.of_list
      (multisets ~parts:shape.parts ~max_sum:shape.capacity ~max_count:shape.cstar ())
  in
  let hb_of_config, hb_groups = hb_group configs in
  let nvars =
    Array.length configs + Array.length shape.module_parts
    + (List.length shape.smalls * Array.length hb_groups)
  in
  { shape; configs; hb_of_config; hb_groups; nvars }

let y_var l i = Array.length l.configs + i

let w_var l si hbi =
  Array.length l.configs + Array.length l.shape.module_parts
  + (si * Array.length l.hb_groups) + hbi

let rows l ~m ~c ~cover =
  let s = l.shape in
  let nx = Array.length l.configs in
  (* (0) every machine runs one configuration *)
  let one_each = row_eq (List.init nx (fun ki -> (ki, 1))) m in
  (* (1) per part value: configuration slots = modules chosen *)
  let slots q =
    let lhs = ref [] in
    Array.iteri
      (fun ki k ->
        let cnt = List.length (List.filter (( = ) q) k) in
        if cnt > 0 then lhs := (ki, cnt) :: !lhs)
      l.configs;
    Array.iteri
      (fun i part -> if part = q then lhs := (y_var l i, -1) :: !lhs)
      s.module_parts;
    row_eq !lhs 0
  in
  (* (2,3) per (h,b) group: slots and space left for the small classes *)
  let members = Array.make (Array.length l.hb_groups) [] in
  for ki = nx - 1 downto 0 do
    let g = l.hb_of_config.(ki) in
    members.(g) <- ki :: members.(g)
  done;
  let capacity hbi (h, b) =
    let row per_small per_config =
      row_le
        (List.mapi (fun si (size, _) -> (w_var l si hbi, per_small size)) s.smalls
        @ List.map (fun ki -> (ki, per_config)) members.(hbi))
        0
    in
    [ row (fun _ -> 1) (b - c); row Fun.id ((h * s.part_space) - s.tbar) ]
  in
  (* (5) every small class assigned exactly once, counted per size *)
  let assigned si (_, cls) =
    row_eq
      (List.init (Array.length l.hb_groups) (fun hbi -> (w_var l si hbi, 1)))
      (List.length cls)
  in
  (* Theorem 11: bound the configurations other than the two trivial ones
     (empty, and one largest part) *)
  let nontrivial =
    match s.cap with
    | None -> []
    | Some cap ->
        let qmax = List.hd s.parts in
        let lhs = ref [] in
        Array.iteri
          (fun ki k -> if k <> [] && k <> [ qmax ] then lhs := (ki, 1) :: !lhs)
          l.configs;
        if !lhs = [] then [] else [ row_le !lhs cap ]
  in
  (one_each :: List.map slots s.parts)
  @ List.concat (Array.to_list (Array.mapi capacity l.hb_groups))
  @ cover @ List.mapi assigned s.smalls @ nontrivial

let machines l sol =
  let acc = ref [] in
  Array.iteri
    (fun ki _ ->
      for _ = 1 to sol.(ki) do
        acc := ki :: !acc
      done)
    l.configs;
  Array.of_list !acc

let group_machines l config_of_machine =
  let g = Array.make (Array.length l.hb_groups) [] in
  for mi = Array.length config_of_machine - 1 downto 0 do
    let hbi = l.hb_of_config.(config_of_machine.(mi)) in
    g.(hbi) <- mi :: g.(hbi)
  done;
  let g = Array.map Array.of_list g in
  fun hbi -> (Array.length g.(hbi), Array.get g.(hbi))

let place_smalls l sol ~group place =
  let remaining = List.map (fun (s, cls) -> (s, ref cls)) l.shape.smalls in
  Array.iteri
    (fun hbi _ ->
      (* the small classes routed to this group, largest first *)
      let chosen = ref [] in
      List.iteri
        (fun si (s, rem) ->
          for _ = 1 to sol.(w_var l si hbi) do
            match !rem with
            | u :: rest ->
                rem := rest;
                chosen := (s, u) :: !chosen
            | [] -> failwith "Ptas.Common: small class accounting mismatch"
          done)
        remaining;
      let sorted = List.sort (fun (a, _) (b, _) -> compare b a) !chosen in
      if sorted <> [] then begin
        let count, machine = group hbi in
        if count = 0 then failwith "Ptas.Common: empty group with small classes";
        List.iteri (fun i (_, u) -> place (machine (i mod count)) u) sorted
      end)
    l.hb_groups

(* ---------------------------------------------------------------- *)
(* The dual-approximation driver. *)

type ('r, 's) regime = {
  name : string;
  whole_jobs : bool;
  bounds : Instance.t -> Q.t * Q.t;
  one_per_machine : (Instance.t -> 's) option;
  round : param -> Instance.t -> Q.t -> 'r * shape;
  cover : 'r -> layout -> row list;
  construct : Instance.t -> 'r -> layout -> int array -> 's;
  validate : Instance.t -> 's -> (unit, string) result;
  guarantee : param -> Q.t -> Q.t;
}

type stats = { t_accepted : Q.t; oracle_calls : int; ilp_vars : int }

let module_name regime = String.capitalize_ascii regime.name ^ "_ptas"

(* One guess: the validated schedule with the ILP's variable count, or
   [None] when no schedule of makespan T exists. *)
let decide ?warm ?basis_out regime p inst t =
  if regime.whole_jobs && Q.(Q.of_int (Instance.pmax inst) > t) then None
  else
    Ccs_obs.Span.with_ (regime.name ^ ".oracle")
      ~fields:[ Ccs_obs.Log.str "t" (Q.to_string t) ]
    @@ fun () ->
    let r, shape = Ccs_obs.Span.with_ "ptas.round" (fun () -> regime.round p inst t) in
    let l = Ccs_obs.Span.with_ "ptas.layout" (fun () -> layout shape) in
    observe_rounding ~large:shape.large ~small_groups:(List.length shape.smalls)
      ~configs:(Array.length l.configs);
    let rows =
      rows l ~m:(Instance.m inst) ~c:(Instance.c inst) ~cover:(regime.cover r l)
    in
    match solve_int_feasibility ?warm ?basis_out ~nvars:l.nvars rows with
    | None -> None
    | Some sol -> (
        let sched =
          Ccs_obs.Span.with_ "ptas.construct" (fun () -> regime.construct inst r l sol)
        in
        match regime.validate inst sched with
        | Ok () -> Some (sched, l.nvars)
        | Error e ->
            failwith (module_name regime ^ ": constructed invalid schedule: " ^ e))

let oracle regime p inst t = Option.map fst (decide regime p inst t)

let search ?progress regime p inst =
  if not (Instance.schedulable inst) then
    invalid_arg (module_name regime ^ ".solve: C > c*m, no schedule exists");
  match regime.one_per_machine with
  | Some one when Instance.m inst >= Instance.n inst ->
      ( one inst,
        { t_accepted = Q.of_int (Instance.pmax inst); oracle_calls = 0; ilp_vars = 0 } )
  | _ ->
      Ccs_obs.Recorder.phase "ptas"
      @@ fun () ->
      Ccs_obs.Span.with_ (regime.name ^ ".solve")
        ~fields:
          [ Ccs_obs.Log.int "n" (Instance.n inst);
            Ccs_obs.Log.int "m" (Instance.m inst);
            Ccs_obs.Log.int "c" (Instance.c inst);
            Ccs_obs.Log.int "d" p.d ]
      @@ fun () ->
      (* probes run on pool domains, so the call counter must be atomic *)
      let calls = Atomic.make 0 in
      (* Warm-start reference basis, set exactly once by the sequential upper
         bound probe that [geometric_search] makes before fanning out: every
         later probe (at any --jobs) then reads the same basis, so the oracle
         stays a pure function of the guess and runs stay bit-identical. *)
      let warm_ref = Atomic.make None in
      let orc t =
        Atomic.incr calls;
        let bout = ref None in
        let r = decide ?warm:(Atomic.get warm_ref) ~basis_out:bout regime p inst t in
        (match (Atomic.get warm_ref, !bout) with
        | None, Some b -> ignore (Atomic.compare_and_set warm_ref None (Some b))
        | _ -> ());
        r
      in
      let lb, ub = regime.bounds inst in
      let (sched, ilp_vars), t_accepted =
        grid_search ?progress ~lb ~ub:(Q.max lb ub) ~delta:(delta p) ~oracle:orc ()
      in
      Ccs_obs.Log.info (fun log ->
          let bound = regime.guarantee p t_accepted in
          log
            ~fields:
              [ Ccs_obs.Log.str "t_accepted" (Q.to_string t_accepted);
                Ccs_obs.Log.int "oracle_calls" (Atomic.get calls);
                Ccs_obs.Log.int "ilp_vars" ilp_vars;
                Ccs_obs.Log.str "makespan_bound" (Q.to_string bound) ]
            (regime.name ^ ".solve: accepted"));
      (sched, { t_accepted; oracle_calls = Atomic.get calls; ilp_vars })

let solve regime p inst = search regime p inst

(* Anytime entry: run the full PTAS, but on cancellation salvage the best
   accepted witness (already a validated schedule) and the highest refuted
   guess from the search's progress record instead of losing the run. *)
let solve_anytime regime p inst =
  let prog = progress () in
  match search ~progress:prog regime p inst with
  | sched, stats ->
      { result = Some (sched, stats.t_accepted);
        refuted = prog.rejected;
        complete = true }
  | exception Ccs_resil.Deadline.Cancelled _ ->
      { result = Option.map (fun ((sched, _), t) -> (sched, t)) prog.accepted;
        refuted = prog.rejected;
        complete = false }
