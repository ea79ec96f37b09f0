module Q = Rat

type stats = { t_guess : Q.t; probes : int; full_slices : int }

(* The whole algorithm only ever looks at the per-class loads. *)
let solve_flat fl =
  if not (Instance.Flat.schedulable fl) then
    invalid_arg "Approx.Splittable.solve: C > c*m, no schedule exists";
  Ccs_obs.Recorder.phase "approx" @@ fun () ->
  let loads = Instance.Flat.class_load fl and m = Instance.Flat.m fl in
  let lb = Bounds.lb_splittable_of ~total_load:(Instance.Flat.total_load fl) ~machines:m in
  let { Border_search.t_star = t; probes } =
    Border_search.search ~loads ~machines:m ~slots:(Instance.Flat.c fl) ~lb
  in
  (* Slice large classes: f_u full slices of size exactly T plus a remainder
     in (0, T]. Every full slice occupies a machine alone (F < m because
     F*T < sum P_u <= m*lb <= m*T), so classes become consecutive blocks. *)
  let blocks = ref [] in
  let cursor = ref 0 in
  let tail_items = ref [] in
  Array.iteri
    (fun u pu ->
      let pu_q = Q.of_int pu in
      if Q.(pu_q > t) then begin
        let f = Bigint.to_int_exn (Q.ceil (Q.div pu_q t)) - 1 in
        let remainder = Q.sub pu_q (Q.mul (Q.of_int f) t) in
        if f > 0 then begin
          blocks :=
            { Schedule.cls = u; m_start = !cursor; m_count = f; per_machine = t }
            :: !blocks;
          cursor := !cursor + f
        end;
        tail_items := (u, remainder) :: !tail_items
      end
      else tail_items := (u, pu_q) :: !tail_items)
    loads;
  let full = !cursor in
  (* Round robin continues with the remaining items in non-ascending order,
     starting at machine F and wrapping around all m machines. *)
  let items =
    List.sort (fun (_, a) (_, b) -> Q.compare b a) !tail_items
  in
  let per_machine : (int, (int * Q.t) list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun i (u, size) ->
      let machine = (full + i) mod m in
      match Hashtbl.find_opt per_machine machine with
      | Some r -> r := (u, size) :: !r
      | None -> Hashtbl.replace per_machine machine (ref [ (u, size) ]))
    items;
  let explicit_machines =
    Hashtbl.fold (fun machine r acc -> (machine, List.rev !r) :: acc) per_machine []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  ( { Schedule.blocks = List.rev !blocks; explicit_machines },
    { t_guess = t; probes; full_slices = full } )

let solve inst = solve_flat (Instance.to_flat inst)
