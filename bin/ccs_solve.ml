(* Solver CLI: read one or more instances, run a chosen algorithm, print and
   validate the schedules. Every algorithm of the paper is reachable from
   here. With --jobs N the instances are solved as a parallel batch on a
   Ccs_par pool (which the in-solver probe loops share); each instance's
   output is buffered and flushed in input order, so the bytes printed are
   identical at any job count. *)

open Cmdliner
module Q = Rat

type variant = Splittable | Preemptive | Nonpreemptive
type algo = Approx | Ptas | Exact | Nfold

let variant_conv =
  let parse = function
    | "splittable" | "split" -> Ok Splittable
    | "preemptive" | "pre" -> Ok Preemptive
    | "nonpreemptive" | "np" -> Ok Nonpreemptive
    | s -> Error (`Msg (Printf.sprintf "unknown variant %S" s))
  in
  let print fmt v =
    Format.pp_print_string fmt
      (match v with Splittable -> "splittable" | Preemptive -> "preemptive" | Nonpreemptive -> "nonpreemptive")
  in
  Arg.conv (parse, print)

let algo_conv =
  let parse = function
    | "approx" -> Ok Approx
    | "ptas" -> Ok Ptas
    | "exact" -> Ok Exact
    | "nfold" -> Ok Nfold
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  let print fmt a =
    Format.pp_print_string fmt
      (match a with Approx -> "approx" | Ptas -> "ptas" | Exact -> "exact" | Nfold -> "nfold")
  in
  Arg.conv (parse, print)

let print_nonpreemptive buf inst assignment =
  let machines = Hashtbl.create 16 in
  Array.iteri
    (fun j mi ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt machines mi) in
      Hashtbl.replace machines mi (j :: prev))
    assignment;
  Hashtbl.fold (fun mi jobs acc -> (mi, jobs) :: acc) machines []
  |> List.sort compare
  |> List.iter (fun (mi, jobs) ->
         let load = List.fold_left (fun acc j -> acc + (Ccs.Instance.job inst j).Ccs.Instance.p) 0 jobs in
         Printf.bprintf buf "machine %d (load %d): %s\n" mi load
           (String.concat " " (List.rev_map (fun j -> Printf.sprintf "j%d" j) jobs)))

let print_splittable buf sched =
  List.iter
    (fun b ->
      Printf.bprintf buf "machines %d..%d: class %d, %s each\n" b.Ccs.Schedule.m_start
        (b.Ccs.Schedule.m_start + b.Ccs.Schedule.m_count - 1)
        b.Ccs.Schedule.cls
        (Q.to_string b.Ccs.Schedule.per_machine))
    sched.Ccs.Schedule.blocks;
  List.iter
    (fun (mi, loads) ->
      Printf.bprintf buf "machine %d: %s\n" mi
        (String.concat ", "
           (List.map (fun (u, l) -> Printf.sprintf "class %d: %s" u (Q.to_string l)) loads)))
    sched.Ccs.Schedule.explicit_machines

let print_preemptive buf sched =
  Array.iteri
    (fun mi pieces ->
      if pieces <> [] then begin
        Printf.bprintf buf "machine %d:" mi;
        List.iter
          (fun pc ->
            Printf.bprintf buf " j%d@[%s,%s)" pc.Ccs.Schedule.pjob
              (Q.to_string pc.Ccs.Schedule.start)
              (Q.to_string (Q.add pc.Ccs.Schedule.start pc.Ccs.Schedule.len)))
          pieces;
        Buffer.add_char buf '\n'
      end)
    sched

(* Run-length-compressed printers (--compress): schedules are summarized
   per machine by class totals instead of per job, and consecutive machines
   with identical summaries collapse into one "machines a..b" line — the
   same idea as the splittable printer's blocks (Theorem 11's compressed
   output), extended to the integral variants so that printing a
   million-job schedule costs O(machines) lines, not O(jobs). *)

let print_nonpreemptive_compressed buf inst assignment =
  let machines = Hashtbl.create 16 in
  Array.iteri
    (fun j mi ->
      let per_cls =
        match Hashtbl.find_opt machines mi with
        | Some h -> h
        | None ->
            let h = Hashtbl.create 4 in
            Hashtbl.replace machines mi h;
            h
      in
      let job = Ccs.Instance.job inst j in
      let cnt, load =
        Option.value ~default:(0, 0) (Hashtbl.find_opt per_cls job.Ccs.Instance.cls)
      in
      Hashtbl.replace per_cls job.Ccs.Instance.cls (cnt + 1, load + job.Ccs.Instance.p))
    assignment;
  let rows =
    Hashtbl.fold
      (fun mi h acc ->
        let classes =
          Hashtbl.fold (fun u v acc -> (u, v) :: acc) h [] |> List.sort compare
        in
        let load = List.fold_left (fun acc (_, (_, l)) -> acc + l) 0 classes in
        let desc =
          String.concat ", "
            (List.map
               (fun (u, (cnt, l)) -> Printf.sprintf "class %d: %d jobs, load %d" u cnt l)
               classes)
        in
        (mi, load, desc) :: acc)
      machines []
    |> List.sort compare
  in
  let rec emit = function
    | [] -> ()
    | (mi, load, desc) :: rest ->
        let rec run last = function
          | (mj, lj, dj) :: tl when mj = last + 1 && lj = load && dj = desc -> run mj tl
          | tl -> (last, tl)
        in
        let last, rest = run mi rest in
        if last = mi then Printf.bprintf buf "machine %d (load %d): %s\n" mi load desc
        else Printf.bprintf buf "machines %d..%d (load %d each): %s\n" mi last load desc;
        emit rest
  in
  emit rows

let print_preemptive_compressed buf inst sched =
  Array.iteri
    (fun mi pieces ->
      if pieces <> [] then begin
        let per_cls = Hashtbl.create 4 in
        let finish = ref Q.zero in
        List.iter
          (fun pc ->
            let cls = (Ccs.Instance.job inst pc.Ccs.Schedule.pjob).Ccs.Instance.cls in
            let cnt, tot =
              Option.value ~default:(0, Q.zero) (Hashtbl.find_opt per_cls cls)
            in
            Hashtbl.replace per_cls cls (cnt + 1, Q.add tot pc.Ccs.Schedule.len);
            finish := Q.max !finish (Q.add pc.Ccs.Schedule.start pc.Ccs.Schedule.len))
          pieces;
        let classes =
          Hashtbl.fold (fun u v acc -> (u, v) :: acc) per_cls [] |> List.sort compare
        in
        Printf.bprintf buf "machine %d (finish %s): %s\n" mi (Q.to_string !finish)
          (String.concat ", "
             (List.map
                (fun (u, (cnt, tot)) ->
                  Printf.sprintf "class %d: %d pieces, time %s" u cnt (Q.to_string tot))
                classes))
      end)
    sched

(* Anytime mode (--deadline-ms / --anytime): run the degradation ladder
   starting at the requested algorithm's rung. A deadline never fails the
   run — it degrades it, and the degraded incumbent is validated and
   printed with its certified lower bound and ratio. *)
let solve_anytime_one ~out inst variant algo param deadline_ms quiet ~compress ~portfolio
    ~node_limit =
  let module D = Ccs_anytime.Driver in
  let module O = Ccs_resil.Outcome in
  let start =
    match algo with
    | Exact -> D.Exact
    | Ptas | Nfold -> D.Ptas (* the ladder has one accuracy rung; nfold shares it *)
    | Approx -> D.Approx
  in
  let deadline = Option.map Ccs_resil.Deadline.of_budget_ms deadline_ms in
  let finish : 'a. string -> ('a -> (Q.t, string) result) -> ('a -> unit) -> 'a D.solved O.t -> unit =
   fun name validate print o ->
    match o with
    | O.Complete s ->
        let mk = Result.get_ok (validate s.D.schedule) in
        Printf.bprintf out "%s anytime: makespan %s (complete, %s rung)\n" name (Q.to_string mk)
          (D.rung_name s.D.rung);
        if not quiet then print s.D.schedule
    | O.Degraded dg ->
        (* The fallback rung cannot fail, so a degraded outcome always
           carries an incumbent. *)
        let s = Option.get dg.O.incumbent in
        let mk = Result.get_ok (validate s.D.schedule) in
        Printf.bprintf out
          "%s anytime: degraded at %s rung: incumbent makespan %s (%s rung), lower bound %s%s\n"
          name dg.O.phase_reached (Q.to_string mk) (D.rung_name s.D.rung)
          (Q.to_string dg.O.lower_bound)
          (match dg.O.ratio_bound with
          | Some r -> Printf.sprintf ", ratio <= %.4g" (Q.to_float r)
          | None -> "");
        if not quiet then print s.D.schedule
  in
  match variant with
  | Splittable ->
      finish "splittable"
        (Ccs.Schedule.validate_splittable inst)
        (print_splittable out)
        (D.solve_splittable ?deadline ~start ~param inst)
  | Preemptive ->
      finish "preemptive"
        (Ccs.Schedule.validate_preemptive inst)
        (if compress then print_preemptive_compressed out inst else print_preemptive out)
        (D.solve_preemptive ?deadline ~start ~param inst)
  | Nonpreemptive ->
      finish "non-preemptive"
        (fun a -> Result.map Q.of_int (Ccs.Schedule.validate_nonpreemptive inst a))
        ((if compress then print_nonpreemptive_compressed else print_nonpreemptive) out inst)
        (D.solve_nonpreemptive ?deadline ~start ~param ?node_limit ~portfolio inst)

(* Solve one instance, accumulating stdout/stderr text into the buffers.
   Returns the exit code. *)
let solve_one ~out ~err file variant algo epsilon quiet ~deadline_ms ~anytime ~compress
    ~portfolio ~node_limit =
  (* Loading always streams into the flat form (text or binary is
     auto-detected); the 2-approximations run on it directly, and the
     record view is rebuilt for the other solvers and the validators. *)
  match Ccs.Io.load_flat file with
  | Error e ->
      Printf.bprintf err "error: %s\n" e;
      1
  | Ok fl -> (
      let inst = Ccs.Instance.of_flat fl in
      let print_np = if compress then print_nonpreemptive_compressed else print_nonpreemptive in
      let print_pre buf s =
        if compress then print_preemptive_compressed buf inst s else print_preemptive buf s
      in
      Printf.bprintf out "instance: n=%d m=%d c=%d C=%d\n" (Ccs.Instance.n inst)
        (Ccs.Instance.m inst) (Ccs.Instance.c inst) (Ccs.Instance.num_classes inst);
      let d = max 1 (int_of_float (ceil (1.0 /. epsilon))) in
      let param = Ccs.Ptas.Common.param d in
      try
        if anytime || deadline_ms <> None then begin
          solve_anytime_one ~out inst variant algo param deadline_ms quiet ~compress
            ~portfolio ~node_limit;
          0
        end
        else begin
        (match (variant, algo) with
        | Splittable, Approx ->
            let sched, stats = Ccs.Approx.Splittable.solve_flat fl in
            let mk = Result.get_ok (Ccs.Schedule.validate_splittable inst sched) in
            Printf.bprintf out "splittable 2-approx: makespan %s (guess T=%s, <= 2T)\n"
              (Q.to_string mk) (Q.to_string stats.Ccs.Approx.Splittable.t_guess);
            if not quiet then print_splittable out sched
        | Splittable, Ptas ->
            let sched, stats = Ccs.Ptas.Splittable_ptas.solve param inst in
            let mk = Result.get_ok (Ccs.Schedule.validate_splittable inst sched) in
            Printf.bprintf out "splittable PTAS (delta=1/%d): makespan %s (accepted T=%s)\n" d
              (Q.to_string mk) (Q.to_string stats.Ccs.Ptas.Common.t_accepted);
            if not quiet then print_splittable out sched
        | Splittable, Nfold ->
            (* Dual-approximation search driven by the paper's literal
               N-fold formulation (Section 4.1): each guess is decided on
               the duplicated N-fold program, and the witness schedule for
               the accepted guess is recovered from the aggregated oracle —
               the two decide the same rounded program by construction. *)
            let delta = Ccs.Ptas.Common.delta param in
            let lb = Ccs.Bounds.lb_splittable inst in
            let ub = Q.max lb (Ccs.Bounds.ub_splittable inst) in
            let oracle t =
              if Ccs.Ptas.Nfold_form.feasible_splittable param inst t then
                match Ccs.Ptas.Splittable_ptas.oracle param inst t with
                | Some sched -> Some sched
                | None ->
                    failwith
                      "nfold backend accepted a guess the aggregated oracle rejects"
              else None
            in
            let sched, t_acc =
              Ccs.Ptas.Common.geometric_search ~lb ~ub ~delta ~oracle ()
            in
            let mk = Result.get_ok (Ccs.Schedule.validate_splittable inst sched) in
            Printf.bprintf out
              "splittable N-fold (delta=1/%d): makespan %s (accepted T=%s)\n" d
              (Q.to_string mk) (Q.to_string t_acc);
            if not quiet then print_splittable out sched
        | (Preemptive | Nonpreemptive), Nfold ->
            Printf.bprintf out
              "no N-fold backend for this variant (splittable only; see DESIGN.md)\n"
        | Splittable, Exact -> (
            match Ccs_exact.Splittable_opt.solve_schedule inst with
            | Some (opt, sched) ->
                Printf.bprintf out "splittable exact optimum: %s\n" (Q.to_string opt);
                if not quiet then print_splittable out sched
            | None -> Printf.bprintf out "exact solver out of budget or instance too large\n")
        | Preemptive, Approx ->
            let sched, stats = Ccs.Approx.Preemptive.solve_flat fl in
            let mk = Result.get_ok (Ccs.Schedule.validate_preemptive inst sched) in
            Printf.bprintf out "preemptive 2-approx: makespan %s (guess T=%s, <= 2T)\n"
              (Q.to_string mk) (Q.to_string stats.Ccs.Approx.Preemptive.t_guess);
            if not quiet then print_pre out sched
        | Preemptive, Ptas ->
            let sched, stats = Ccs.Ptas.Preemptive_ptas.solve param inst in
            let mk = Result.get_ok (Ccs.Schedule.validate_preemptive inst sched) in
            Printf.bprintf out "preemptive PTAS (delta=1/%d): makespan %s (accepted T=%s)\n" d
              (Q.to_string mk) (Q.to_string stats.Ccs.Ptas.Common.t_accepted);
            if not quiet then print_pre out sched
        | Preemptive, Exact ->
            Printf.bprintf out "no exact preemptive solver (see DESIGN.md); lower bound: %s\n"
              (Q.to_string (Ccs.Bounds.lb_preemptive inst))
        | Nonpreemptive, Approx ->
            let sched, stats = Ccs.Approx.Nonpreemptive.solve_flat fl in
            let mk = Result.get_ok (Ccs.Schedule.validate_nonpreemptive inst sched) in
            Printf.bprintf out "non-preemptive 7/3-approx: makespan %d (guess T=%d, <= 7/3 T)\n" mk
              stats.Ccs.Approx.Nonpreemptive.t_guess;
            if not quiet then print_np out inst sched
        | Nonpreemptive, Ptas ->
            let sched, stats = Ccs.Ptas.Nonpreemptive_ptas.solve param inst in
            let mk = Result.get_ok (Ccs.Schedule.validate_nonpreemptive inst sched) in
            Printf.bprintf out "non-preemptive PTAS (delta=1/%d): makespan %d (accepted T=%s)\n" d mk
              (Q.to_string stats.Ccs.Ptas.Common.t_accepted);
            if not quiet then print_np out inst sched
        | Nonpreemptive, Exact when portfolio -> (
            match Ccs_exact.Portfolio.solve ?node_limit inst with
            | Some o when o.Ccs_exact.Portfolio.proved ->
                Printf.bprintf out "non-preemptive exact optimum: %d (portfolio winner: %s)\n"
                  o.Ccs_exact.Portfolio.makespan o.Ccs_exact.Portfolio.winner;
                if not quiet then print_np out inst o.Ccs_exact.Portfolio.assignment
            | Some o ->
                (* Every member abstained: mirror the anytime Degraded
                   contract — surface the incumbent plus the proven bound
                   instead of dropping them. *)
                Printf.bprintf out
                  "exact search out of budget: incumbent %d, proven lower bound %d\n"
                  o.Ccs_exact.Portfolio.makespan o.Ccs_exact.Portfolio.lower_bound;
                if not quiet then print_np out inst o.Ccs_exact.Portfolio.assignment
            | None -> Printf.bprintf out "instance is not schedulable\n")
        | Nonpreemptive, Exact -> (
            match Ccs_exact.Bnb.solve_result ?node_limit inst with
            | Some { Ccs_exact.Bnb.status = Complete; makespan; assignment; _ } ->
                Printf.bprintf out "non-preemptive exact optimum: %d\n" makespan;
                if not quiet then print_np out inst assignment
            | Some r ->
                Printf.bprintf out
                  "exact search out of budget: incumbent %d, proven lower bound %d\n"
                  r.Ccs_exact.Bnb.makespan r.Ccs_exact.Bnb.lower_bound;
                if not quiet then print_np out inst r.Ccs_exact.Bnb.assignment
            | None -> Printf.bprintf out "instance is not schedulable\n"));
        0
        end
      with
      | Invalid_argument msg ->
          Printf.bprintf err "error: %s\n" msg;
          1
      | Ccs.Ptas.Common.Too_many ->
          Printf.bprintf err "error: configuration space too large for this epsilon\n";
          1
      | Ccs.Ptas.Common.Budget_exceeded ->
          Printf.bprintf err "error: N-fold node budget exhausted\n";
          1)

let run files variant algo epsilon quiet jobs deadline_ms anytime _format compress portfolio
    node_limit obs =
  Obs_cli.with_reporting obs @@ fun () ->
  if jobs < 1 then begin
    Printf.eprintf "error: --jobs must be >= 1\n";
    2
  end
  else begin
    Ccs_par.set_jobs jobs;
    let many = List.length files > 1 in
    let results =
      Ccs_par.parallel_map
        (fun file ->
          let out = Buffer.create 256 and err = Buffer.create 64 in
          if many then Printf.bprintf out "=== %s ===\n" file;
          let code =
            solve_one ~out ~err file variant algo epsilon quiet ~deadline_ms ~anytime
              ~compress ~portfolio ~node_limit
          in
          (out, err, code))
        (Array.of_list files)
    in
    Array.fold_left
      (fun acc (out, err, code) ->
        print_string (Buffer.contents out);
        prerr_string (Buffer.contents err);
        max acc code)
      0 results
  end

let cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"INSTANCE"
           ~doc:"Instance file(s) (ccs_gen format); several files form a batch.")
  in
  let variant = Arg.(value & opt variant_conv Nonpreemptive & info [ "variant" ] ~doc:"splittable, preemptive or nonpreemptive.") in
  let algo =
    Arg.(value & opt algo_conv Approx
           & info [ "algo" ]
               ~doc:"approx, ptas, exact, or nfold (the paper's literal N-fold \
                     formulation; splittable variant only).")
  in
  let epsilon = Arg.(value & opt float 0.5 & info [ "epsilon" ] ~doc:"PTAS accuracy (delta = 1/ceil(1/epsilon)).") in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Do not print the schedule.") in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the batch and the in-solver probe loops. \
                 Output is deterministic: seeded runs are bit-identical at any $(docv).")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
           & info [ "deadline-ms" ] ~docv:"MS"
               ~doc:"Solve anytime under a $(docv) budget: walk the degradation ladder \
                     (exact, PTAS, 2-approx, greedy) and report the best incumbent with a \
                     certified ratio if the deadline lands mid-solve.")
  in
  let anytime =
    Arg.(value & flag
           & info [ "anytime" ]
               ~doc:"Use the degradation ladder even without a deadline ($(b,--algo) picks \
                     the starting rung).")
  in
  let format =
    Arg.(value & opt (enum [ ("text", `Text); ("flat", `Flat) ]) `Text
           & info [ "format" ] ~docv:"FMT"
               ~doc:"Accepted for compatibility and ignored: it no longer selects \
                     a code path. Input files are auto-detected (text or ccsb1 \
                     binary), and the 2-approximations always run on the flat \
                     int-array form.")
  in
  let compress =
    Arg.(value & flag
           & info [ "compress" ]
               ~doc:"Run-length-compressed schedule output: per-machine class \
                     totals with identical consecutive machines collapsed, so \
                     printing costs O(machines) lines instead of O(jobs).")
  in
  let portfolio =
    Arg.(value & flag
           & info [ "portfolio" ]
               ~doc:"With $(b,--algo exact) (non-preemptive, plain or anytime): race \
                     the conflict-driven branch & bound against an exact \
                     configuration-ILP and an exact N-fold program on the $(b,--jobs) \
                     pool. The first proof in fixed member order wins, so the answer \
                     is bit-identical at any job count.")
  in
  let node_limit =
    Arg.(value & opt (some int) None
           & info [ "node-limit" ] ~docv:"N"
               ~doc:"Node budget for the exact search (and the anytime exact rung). \
                     When the budget runs out the incumbent and its proven lower \
                     bound are reported instead of being discarded.")
  in
  let info = Cmd.info "ccs_solve" ~doc:"Solve Class Constrained Scheduling instances" in
  Cmd.v info
    Term.(const run $ files $ variant $ algo $ epsilon $ quiet $ jobs $ deadline_ms $ anytime
          $ format $ compress $ portfolio $ node_limit $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
