(* Bench regression gate front-end (the measurement and threshold logic
   lives in Gate, shared with bin/ccs_report --check):

     dune exec bench/check_regression.exe              # compare, exit 1 on regression
     dune exec bench/check_regression.exe -- --update  # rewrite the baseline *)

let write_baseline () =
  let cal, n_phases = Gate.write_baseline Gate.default_baseline_path in
  Printf.printf "wrote %s (%d phases, calibration %.4fs)\n" Gate.default_baseline_path
    n_phases cal

let compare_runs () =
  match Gate.compare_to_baseline () with
  | Error e ->
      Printf.eprintf "%s\n" e;
      exit 2
  | Ok cmp ->
      Printf.printf "machine speed vs baseline: %.2fx (calibration %.4fs vs %.4fs)\n"
        cmp.Gate.scale cmp.Gate.calibration_s cmp.Gate.base_calibration_s;
      Printf.printf "%-22s %12s %12s %9s\n" "phase" "expected" "current" "delta";
      List.iter
        (fun (r : Gate.wall_row) ->
          match (r.expected_s, r.delta) with
          | Some expected, Some delta ->
              Printf.printf "%-22s %10.4fs %10.4fs %+8.1f%%%s\n" r.name expected
                r.current_s (100.0 *. delta)
                (if r.regressed then " REGRESSED" else "")
          | _ -> Printf.printf "%-22s %12s %10.4fs %9s\n" r.name "(new)" r.current_s "-")
        cmp.Gate.wall_rows;
      List.iter
        (fun name -> Printf.printf "%-22s (phase no longer measured)\n" name)
        cmp.Gate.dropped_phases;
      List.iter
        (fun (r : Gate.counter_row) ->
          match (r.expected, r.cdelta) with
          | Some b, Some delta ->
              Printf.printf "%-22s %12d %12d %+8.1f%%%s\n" r.cname b r.current
                (100.0 *. delta)
                (if r.cregressed then " REGRESSED" else "")
          | _ -> Printf.printf "%-22s %12s %12d %9s\n" r.cname "(new)" r.current "-")
        cmp.Gate.counter_rows;
      let regressed = Gate.regressions cmp in
      if regressed = [] then
        Printf.printf "ok: no phase regressed by more than %.0f%%, no work counter changed\n"
          (100.0 *. cmp.Gate.tol)
      else begin
        Printf.printf
          "FAIL: %d regressed (phases by more than %.0f%%, counters on any change): %s\n"
          (List.length regressed) (100.0 *. cmp.Gate.tol)
          (String.concat ", " regressed);
        exit 1
      end

let () =
  match Array.to_list Sys.argv with
  | _ :: [ "--update" ] -> write_baseline ()
  | _ :: [] -> compare_runs ()
  | _ ->
      Printf.eprintf "usage: check_regression [--update]\n";
      exit 2
