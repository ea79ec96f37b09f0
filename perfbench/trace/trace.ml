(* Traced runner for the per-layer benchmark metrics.

   Replays, in-process, the stage chain one ccs_solve invocation runs —
   load, instance build, solve, validate — by calling each layer's public
   functions directly, and records a span around every call: monotonic
   start/duration, minor-word and major-collection deltas, and the deltas
   of the work counters the libraries already keep (Ccs_obs.Metrics,
   Rat.stats, Deadline.checks_total). Emit is not replayed: the CLI
   printers live in bin/ and are not a library, so their cost is part of
   the unattributed remainder perfbench/run.py derives.

   Usage: trace.exe ALGO FORMAT [--epsilon E] [--node-limit N] VARIANT:FILE ...
     ALGO    approx | ptas | exact
     FORMAT  text | flat (approx only: record or flat solver path)

   Output: one JSON object per span on stdout, in completion order. *)

module M = Ccs_obs.Metrics

type solved = Sched : ('s -> (Rat.t, string) result) * 's -> solved

let counters =
  [ "io.stream_bytes"; "io.stream_tokens"; "border_search.probes"; "ptas.guesses";
    "ptas.ilp_calls"; "ilp.solves"; "ilp.nodes"; "lp.pivots"; "lp.phase1_iterations";
    "lp.warm_starts"; "lp.basis_refactorizations"; "bnb.nodes"; "bnb.nogoods";
    "bnb.nogood_hits"; "bnb.restarts"; "bnb.node_limit_hits"; "bnb.prunes_area" ]
  |> List.map (fun name -> (name, M.counter name))

(* Histograms whose per-observation values are summed into a count. *)
let summed = [ "ptas.configs"; "ptas.ilp_vars" ] |> List.map (fun name -> (name, M.histogram name))

let read_counts () =
  let rs = Rat.stats () in
  List.map (fun (name, c) -> (name, M.counter_value c)) counters
  @ List.map
      (fun (name, h) ->
        let n = M.histogram_count h in
        (name, if n = 0 then 0 else Float.to_int (Float.round (M.histogram_mean h *. float n))))
      summed
  @ [ ("rat.small_hits", rs.Rat.small_hits); ("rat.promotions", rs.Rat.promotions);
      ("resil.cancel_checks", Ccs_resil.Deadline.checks_total ()) ]

let origin = Ccs_util.Mono.now_ns ()

let emit ~sample ~variant ~name ~parent ~t0 ~t1 ~w0 ~w1 ~mc0 ~mc1 ~c0 ~c1 =
  let deltas = List.map2 (fun (k, a) (_, b) -> Printf.sprintf "%S:%d" k (b - a)) c0 c1 in
  Printf.printf
    "{\"sample\":%d,\"variant\":%S,\"span\":%S,\"parent\":%s,\"start_s\":%.9f,\"dur_s\":%.9f,\"minor_words\":%.0f,\"major_collections\":%d,\"counters\":{%s}}\n%!"
    sample variant name
    (match parent with None -> "null" | Some p -> Printf.sprintf "%S" p)
    (float (t0 - origin) *. 1e-9)
    (float (t1 - t0) *. 1e-9)
    (w1 -. w0) (mc1 - mc0)
    (String.concat "," deltas)

(* Counters are read before the clock starts and after it stops, so the
   span's own bookkeeping stays out of its duration. [Gc.minor_words] is
   exact at any point; [Gc.quick_stat]'s copy only advances at minor
   collections. *)
let span ~sample ~variant ?parent name f =
  let c0 = read_counts () in
  let mc0 = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = Gc.minor_words () in
  let t0 = Ccs_util.Mono.now_ns () in
  let r = f () in
  let t1 = Ccs_util.Mono.now_ns () in
  let w1 = Gc.minor_words () in
  let mc1 = (Gc.quick_stat ()).Gc.major_collections in
  let c1 = read_counts () in
  emit ~sample ~variant ~name ~parent ~t0 ~t1 ~w0 ~w1 ~mc0 ~mc1 ~c0 ~c1;
  r

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("trace: " ^ s); exit 2) fmt

let solve ~algo ~format ~param ~node_limit variant fl inst =
  let open Ccs in
  let split s = Sched (Schedule.validate_splittable inst, s)
  and pre s = Sched (Schedule.validate_preemptive inst, s)
  and np s = Sched ((fun a -> Result.map Rat.of_int (Schedule.validate_nonpreemptive inst a)), s) in
  match (algo, variant) with
  | "approx", "splittable" ->
      split (fst (if format = "flat" then Approx.Splittable.solve_flat fl else Approx.Splittable.solve inst))
  | "approx", "preemptive" ->
      pre (fst (if format = "flat" then Approx.Preemptive.solve_flat fl else Approx.Preemptive.solve inst))
  | "approx", "nonpreemptive" ->
      np (fst (if format = "flat" then Approx.Nonpreemptive.solve_flat fl else Approx.Nonpreemptive.solve inst))
  | "ptas", "splittable" -> split (fst (Ptas.Splittable_ptas.solve param inst))
  | "ptas", "preemptive" -> pre (fst (Ptas.Preemptive_ptas.solve param inst))
  | "ptas", "nonpreemptive" -> np (fst (Ptas.Nonpreemptive_ptas.solve param inst))
  | "exact", "nonpreemptive" -> (
      match Ccs_exact.Bnb.solve_result ?node_limit inst with
      | Some r -> np r.Ccs_exact.Bnb.assignment
      | None -> fail "instance is not schedulable")
  | _ -> fail "no %s solver for variant %s" algo variant

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let algo, format, rest =
    match args with a :: f :: rest -> (a, f, rest) | _ -> fail "usage: trace.exe ALGO FORMAT [opts] VARIANT:FILE ..."
  in
  let rec opts eps nl = function
    | "--epsilon" :: e :: tl -> opts (float_of_string e) nl tl
    | "--node-limit" :: n :: tl -> opts eps (Some (int_of_string n)) tl
    | tasks -> (eps, nl, tasks)
  in
  let epsilon, node_limit, tasks = opts 0.5 None rest in
  (* Same delta as ccs_solve derives from --epsilon. *)
  let param = Ccs.Ptas.Common.param (max 1 (int_of_float (ceil (1.0 /. epsilon)))) in
  List.iteri
    (fun sample task ->
      let variant, file =
        match String.index_opt task ':' with
        | Some i -> (String.sub task 0 i, String.sub task (i + 1) (String.length task - i - 1))
        | None -> fail "task %S is not VARIANT:FILE" task
      in
      let stage name f = span ~sample ~variant ~parent:"sample" name f in
      (* Each sample starts from a compacted heap, as a fresh ccs_solve
         process starts from an empty one. *)
      Gc.compact ();
      span ~sample ~variant "sample" (fun () ->
          let fl =
            match stage "io.load" (fun () -> Ccs.Io.load_flat file) with
            | Ok fl -> fl
            | Error e -> fail "%s: %s" file e
          in
          let inst = stage "instance.build" (fun () -> Ccs.Instance.of_flat fl) in
          let layer = if algo = "exact" then "bnb" else algo ^ "." ^ variant in
          let (Sched (validate, s)) =
            stage (layer ^ ".solve") (fun () -> solve ~algo ~format ~param ~node_limit variant fl inst)
          in
          match stage ("schedule." ^ variant ^ ".validate") (fun () -> validate s) with
          | Ok _ -> ()
          | Error e -> fail "%s: invalid %s schedule: %s" file variant e))
    tasks
