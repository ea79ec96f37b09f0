(* F1-F5 — the paper's five illustrative figures, regenerated as ASCII
   renderings by the actual algorithms (the paper has no measurement plots;
   its figures illustrate mechanisms). *)

module Q = Rat
module U = Bench_util

(* --- F1: round robin layout (Figure 1) --- *)
let f1 () =
  U.header "F1 — Figure 1: round robin over sorted classes";
  let inst = Ccs.Generator.figure1_example () in
  let sched, stats = Ccs.Approx.Splittable.solve inst in
  Printf.printf "10 classes, 4 machines, guess T = %s\n"
    (Q.to_string stats.Ccs.Approx.Splittable.t_guess);
  let pieces = Ccs.Schedule.to_job_pieces inst sched in
  let m = Ccs.Instance.m inst in
  let cells =
    Array.init m (fun mi ->
        match List.assoc_opt mi pieces with
        | None -> []
        | Some pl ->
            List.map
              (fun pc ->
                ((Printf.sprintf "%d" (1 + (Ccs.Instance.job inst pc.Ccs.Schedule.job).Ccs.Instance.cls)), pc.Ccs.Schedule.size))
              pl)
  in
  print_string (Ccs.Schedule.render_loads cells);
  U.footnote
    "classes numbered by non-ascending total load; class i lands on machine\n\
     ((i-1) mod m), wrapping like Figure 1."

(* --- F2: the Algorithm 2 repacking (Figure 2) --- *)
let f2 () =
  U.header "F2 — Figure 2: preemptive repacking (shift above the first class to T)";
  (* one heavy class that gets sliced at T, plus fillers, exactly the
     figure's situation *)
  let inst =
    Ccs.Instance.make ~machines:4 ~slots:3
      [ (20, 0); (18, 0); (14, 1); (12, 2); (10, 3); (8, 4); (6, 5); (4, 6); (2, 7) ]
  in
  let sched, stats = Ccs.Approx.Preemptive.solve inst in
  Printf.printf "guess T = %s, repacked = %b\n" (Q.to_string stats.Ccs.Approx.Preemptive.t_guess)
    stats.Ccs.Approx.Preemptive.repacked;
  Array.iteri
    (fun mi piece_list ->
      if piece_list <> [] then begin
        Printf.printf "machine %d: " mi;
        List.iter
          (fun pc ->
            Printf.printf "[%s,%s) j%d(c%d)  " (Q.to_string pc.Ccs.Schedule.start)
              (Q.to_string (Q.add pc.Ccs.Schedule.start pc.Ccs.Schedule.len))
              pc.Ccs.Schedule.pjob
              (Ccs.Instance.job inst pc.Ccs.Schedule.pjob).Ccs.Instance.cls)
          piece_list;
        print_newline ()
      end)
    sched;
  (match Ccs.Schedule.validate_preemptive inst sched with
  | Ok mk -> Printf.printf "makespan %s <= 2T = %s; no job parallel to itself\n" (Q.to_string mk)
               (Q.to_string (Q.mul (Q.of_int 2) stats.Ccs.Approx.Preemptive.t_guess))
  | Error e -> failwith e);
  U.footnote "pieces above each machine's first item start exactly at T, as in Figure 2."

(* --- F3: the class-pair swap behind Theorem 11 (Figure 3) --- *)
let f3 () =
  U.header "F3 — Figure 3: making class pairs unique by swapping";
  (* two machines sharing the pair (A, B): move all of A from machine 1 to
     machine 2 and the same volume of B back *)
  let m1 = [ ("A", Q.of_int 3); ("B", Q.of_int 5) ] in
  let m2 = [ ("B", Q.of_int 2); ("A", Q.of_int 6) ] in
  let show label ms =
    Printf.printf "%s\n" label;
    List.iteri
      (fun i loads ->
        Printf.printf "  machine %d: %s\n" (i + 1)
          (String.concat " + " (List.map (fun (c, l) -> Printf.sprintf "%s:%s" c (Q.to_string l)) loads)))
      ms
  in
  show "before (pair {A,B} on both machines):" [ m1; m2 ];
  (* p(1, A) = 3 is minimal: move it to machine 2; move 3 units of B back *)
  let m1' = [ ("B", Q.of_int 8) ] in
  let m2' = [ ("B", Q.of_int 2); ("A", Q.of_int 9) ] |> List.map (fun (c, l) -> if c = "B" then (c, Q.sub l (Q.of_int 3)) else (c, l)) in
  let m2' = List.filter (fun (_, l) -> Q.sign l > 0) m2' in
  show "after the swap (loads preserved, class slots not increased):" [ m1'; m2' ];
  U.footnote
    "this exchange argument bounds the number of non-trivial machine\n\
     configurations by (C choose 2) + C, which is how Theorem 11 removes the\n\
     polynomial dependence on m.";
  (* and the real thing: the Theorem 11 code path on 10^12 machines *)
  let inst = Ccs.Instance.make ~machines:1_000_000_000_000 ~slots:1 [ (300, 0); (200, 1); (7, 2) ] in
  let sched, _ = Ccs.Ptas.Splittable_ptas.solve (Ccs.Ptas.Common.param 2) inst in
  Printf.printf "Theorem 11 output on m=10^12: %d machine blocks + %d explicit machines\n"
    (List.length sched.Ccs.Schedule.blocks)
    (List.length sched.Ccs.Schedule.explicit_machines)

(* --- F4: dissolving a configuration (Figure 4) --- *)
let f4 () =
  U.header "F4 — Figure 4: configuration -> module slots -> jobs";
  let inst =
    Ccs.Instance.make ~machines:2 ~slots:2 [ (9, 0); (7, 0); (8, 1); (6, 1); (4, 2); (3, 3) ]
  in
  let p = Ccs.Ptas.Common.param 2 in
  let sched, stats = Ccs.Ptas.Nonpreemptive_ptas.solve p inst in
  Printf.printf "accepted T* = %s\n" (Q.to_string stats.Ccs.Ptas.Common.t_accepted);
  (* reconstruct the dissolution view per machine: class -> its jobs there *)
  let per_machine = Hashtbl.create 4 in
  Array.iteri
    (fun j mi ->
      let job = Ccs.Instance.job inst j in
      let prev = Option.value ~default:[] (Hashtbl.find_opt per_machine mi) in
      Hashtbl.replace per_machine mi ((j, job.Ccs.Instance.cls, job.Ccs.Instance.p) :: prev))
    sched;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_machine []
  |> List.sort compare
  |> List.iter (fun (mi, jobs) ->
         let by_class = Hashtbl.create 4 in
         List.iter
           (fun (j, cls, pj) ->
             let prev = Option.value ~default:[] (Hashtbl.find_opt by_class cls) in
             Hashtbl.replace by_class cls ((j, pj) :: prev))
           jobs;
         let modules =
           Hashtbl.fold
             (fun cls js acc ->
               let sizes = List.map snd js in
               (Printf.sprintf "module(class %d){%s}" cls
                  (String.concat "," (List.map string_of_int sizes)),
                List.fold_left ( + ) 0 sizes)
               :: acc)
             by_class []
         in
         Printf.printf "machine %d: configuration K = <%s>\n" mi
           (String.concat ", " (List.map (fun (_, s) -> string_of_int s) modules));
         List.iter (fun (desc, _) -> Printf.printf "   %s\n" desc) modules);
  U.footnote "each machine's configuration holds module sizes; each module\ndissolves into the concrete jobs of a single class, as in Figure 4."

(* --- F5: the flow network of Lemma 16 (Figure 5) --- *)
let f5 () =
  U.header "F5 — Figure 5: Lemma 16 flow network (integral preemptive structure)";
  (* jobs of one large class with layer demands; machine slot supply per
     layer; the max-flow witnesses a well-structured schedule *)
  let jobs = [| ("j1", 3); ("j2", 2); ("j3", 2) |] in
  let layer_supply = [| 2; 2; 2; 1 |] in
  let njobs = Array.length jobs and nlayers = Array.length layer_supply in
  let source = njobs + nlayers and sink = njobs + nlayers + 1 in
  let g = Flow.create (njobs + nlayers + 2) in
  Array.iteri (fun ji (_, k) -> ignore (Flow.add_edge g ~src:source ~dst:ji ~cap:k)) jobs;
  let edges = Array.make_matrix njobs nlayers (-1) in
  for ji = 0 to njobs - 1 do
    for l = 0 to nlayers - 1 do
      edges.(ji).(l) <- Flow.add_edge g ~src:ji ~dst:(njobs + l) ~cap:1
    done
  done;
  Array.iteri
    (fun l cap -> ignore (Flow.add_edge g ~src:(njobs + l) ~dst:sink ~cap))
    layer_supply;
  let v = Flow.max_flow g ~source ~sink in
  let demand = Array.fold_left (fun acc (_, k) -> acc + k) 0 jobs in
  Printf.printf "jobs -> layers -> machine slots; demand %d, max flow %d (integral)\n" demand v;
  Printf.printf "        %s\n"
    (String.concat "  " (List.init nlayers (fun l -> Printf.sprintf "L%d" (l + 1))));
  Array.iteri
    (fun ji (name, k) ->
      Printf.printf "%s (%d):  %s\n" name k
        (String.concat "   "
           (List.init nlayers (fun l ->
                if Flow.flow_on g edges.(ji).(l) = 1 then "x" else "."))))
    jobs;
  U.footnote
    "every 'x' is one delta^2*T piece; no job has two pieces in a layer, so\n\
     nothing runs in parallel with itself — the integrality argument of Lemma 16\n\
     and the placement rule of Theorem 18."
