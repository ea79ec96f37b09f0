(* Ccs_par tests: the sequential-equivalence contract of the combinators
   (qcheck, across pool sizes 1-8), exception ordering, the per-index Prng
   streams, thread-safety of the metrics registry under a parallel batch,
   and an end-to-end check that a seeded PTAS run produces the identical
   schedule on a 1-domain and a 4-domain ambient pool. *)

module Par = Ccs_par
module Prng = Ccs_util.Prng

let with_pool jobs f =
  let pool = Par.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let with_ambient jobs f =
  Par.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Par.set_jobs 1) f

(* ---------- combinators vs the sequential loop ---------- *)

let arb_input =
  QCheck.(pair (int_range 1 8) (array_of_size Gen.(int_range 0 40) small_int))

let prop_map_matches_sequential =
  QCheck.Test.make ~name:"parallel_map = Array.map (pool sizes 1-8)" ~count:60
    arb_input (fun (jobs, arr) ->
      let f x = (x * 37) land 1023 in
      with_pool jobs (fun pool -> Par.parallel_map ~pool f arr = Array.map f arr))

let prop_mapi_matches_sequential =
  QCheck.Test.make ~name:"parallel_mapi = Array.mapi (pool sizes 1-8)" ~count:60
    arb_input (fun (jobs, arr) ->
      let f i x = (i * 31) + x in
      with_pool jobs (fun pool -> Par.parallel_mapi ~pool f arr = Array.mapi f arr))

let prop_find_first_matches_sequential =
  QCheck.Test.make ~name:"parallel_find_first = sequential scan (pool sizes 1-8)"
    ~count:120 arb_input (fun (jobs, arr) ->
      let f x = if x mod 7 = 0 then Some (x * 2) else None in
      let expected =
        Array.fold_left
          (fun acc x -> match acc with Some _ -> acc | None -> f x)
          None arr
      in
      with_pool jobs (fun pool -> Par.parallel_find_first ~pool f arr = expected))

let test_map_exception_order () =
  (* Several elements raise; the escaping exception must be the one the
     sequential loop hits first (index 3), at every pool size. *)
  let arr = Array.init 32 (fun i -> i) in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          match
            Par.parallel_map ~pool
              (fun i -> if i >= 3 && i mod 5 = 3 then failwith (string_of_int i) else i)
              arr
          with
          | _ -> Alcotest.fail "expected an exception"
          | exception Failure msg ->
              Alcotest.(check string)
                (Printf.sprintf "lowest-index exception at jobs=%d" jobs)
                "3" msg))
    [ 1; 2; 4; 8 ]

let test_find_first_skips_nothing_before_winner () =
  (* The winner is index 20; every earlier element must have been evaluated
     (the contract says the answer is only reported once they all said
     None). Elements after the winner may or may not run. *)
  let n = 40 in
  let seen = Array.make n false in
  List.iter
    (fun jobs ->
      Array.fill seen 0 n false;
      with_pool jobs (fun pool ->
          let r =
            Par.parallel_find_firsti ~pool
              (fun i () ->
                seen.(i) <- true;
                if i >= 20 then Some i else None)
              (Array.make n ())
          in
          Alcotest.(check (option int))
            (Printf.sprintf "winner at jobs=%d" jobs)
            (Some 20) r;
          for i = 0 to 19 do
            if not seen.(i) then
              Alcotest.failf "element %d not evaluated before reporting (jobs=%d)" i jobs
          done))
    [ 1; 2; 4; 8 ]

let test_nested_batches () =
  (* A task that itself fans out must not deadlock even when the outer batch
     occupies every worker. *)
  with_pool 4 (fun pool ->
      let r =
        Par.parallel_map ~pool
          (fun i ->
            Array.fold_left ( + ) 0
              (Par.parallel_map ~pool (fun j -> (i * 10) + j) (Array.init 8 (fun j -> j))))
          (Array.init 8 (fun i -> i))
      in
      let expected =
        Array.init 8 (fun i ->
            Array.fold_left ( + ) 0 (Array.init 8 (fun j -> (i * 10) + j)))
      in
      Alcotest.(check (array int)) "nested fan-out" expected r)

(* ---------- per-index Prng streams ---------- *)

let test_prng_stream_deterministic () =
  let draw t = List.init 5 (fun _ -> Prng.int_in t 0 1_000_000) in
  let a = draw (Prng.stream ~seed:42 ~index:3) in
  let b = draw (Prng.stream ~seed:42 ~index:3) in
  Alcotest.(check (list int)) "same (seed, index) -> same stream" a b;
  let c = draw (Prng.stream ~seed:42 ~index:4) in
  Alcotest.(check bool) "different index -> different stream" false (a = c);
  let base = draw (Prng.create 42) in
  let zero = draw (Prng.stream ~seed:42 ~index:0) in
  Alcotest.(check (list int)) "index 0 = create seed" base zero

let test_prng_streams_jobs_invariant () =
  (* Drawing from per-index streams inside a parallel batch gives the same
     numbers at any pool size — the whole point of [stream]. *)
  let draw_all pool =
    Par.parallel_mapi ~pool
      (fun i () -> Prng.int_in (Prng.stream ~seed:7 ~index:i) 0 1_000_000)
      (Array.make 16 ())
  in
  let seq = with_pool 1 draw_all in
  List.iter
    (fun jobs ->
      let par = with_pool jobs draw_all in
      Alcotest.(check (array int))
        (Printf.sprintf "streams at jobs=%d" jobs)
        seq par)
    [ 2; 4; 8 ]

(* ---------- metrics under contention ---------- *)

let test_metrics_parallel_incr () =
  let c = Ccs_obs.Metrics.counter "test_par.contended" in
  let h = Ccs_obs.Metrics.histogram "test_par.contended_h" in
  with_pool 8 (fun pool ->
      ignore
        (Par.parallel_map ~pool
           (fun _ ->
             for _ = 1 to 1_000 do
               Ccs_obs.Metrics.incr c;
               Ccs_obs.Metrics.observe h 1.0
             done)
           (Array.make 16 ())));
  Alcotest.(check int) "no lost counter increments" 16_000 (Ccs_obs.Metrics.counter_value c);
  Alcotest.(check int) "no lost observations" 16_000 (Ccs_obs.Metrics.histogram_count h)

(* ---------- end-to-end: seeded PTAS runs are jobs-invariant ---------- *)

let gen_instance seed =
  Ccs.Generator.generate ~seed
    { Ccs.Generator.n = 20; classes = 5; machines = 4; slots = 2; p_lo = 1; p_hi = 50;
      family = Ccs.Generator.Uniform }

let test_ptas_identical_across_jobs () =
  let param = Ccs.Ptas.Common.param 1 in
  List.iter
    (fun seed ->
      let inst = gen_instance seed in
      let solve () = Ccs.Ptas.Nonpreemptive_ptas.solve param inst in
      let sched1, stats1 = with_ambient 1 solve in
      let sched4, stats4 = with_ambient 4 solve in
      Alcotest.(check (array int))
        (Printf.sprintf "assignment identical (seed %d)" seed)
        sched1 sched4;
      Alcotest.(check string)
        (Printf.sprintf "accepted guess identical (seed %d)" seed)
        (Rat.to_string stats1.Ccs.Ptas.Common.t_accepted)
        (Rat.to_string stats4.Ccs.Ptas.Common.t_accepted))
    [ 101; 202; 303 ]

let test_multisets_identical_across_jobs () =
  let enumerate () =
    Ccs.Ptas.Common.multisets ~parts:[ 2; 3; 5; 7 ] ~max_sum:21 ~max_count:6 ()
  in
  let seq = with_ambient 1 enumerate in
  let par = with_ambient 4 enumerate in
  Alcotest.(check int) "same count" (List.length seq) (List.length par);
  Alcotest.(check bool) "same configurations" true (seq = par);
  (* seven part values are wide enough for the parallel split on the
     largest part; up to 15 of them make C(22,7) = 170544 multisets, under
     the 200000-node budget, and up to 16 make C(23,7) = 245157, over it *)
  let wide max_count () =
    match
      Ccs.Ptas.Common.multisets ~parts:[ 1; 2; 3; 4; 5; 6; 7 ] ~max_sum:1000 ~max_count ()
    with
    | ms -> Some ms
    | exception Ccs.Ptas.Common.Too_many -> None
  in
  let seq = with_ambient 1 (wide 15) and par = with_ambient 4 (wide 15) in
  Alcotest.(check (option int)) "under budget" (Some 170544) (Option.map List.length seq);
  Alcotest.(check bool) "same wide configurations" true (seq = par);
  Alcotest.(check bool) "over budget at jobs 1" true (with_ambient 1 (wide 16) = None);
  Alcotest.(check bool) "over budget at jobs 4" true (with_ambient 4 (wide 16) = None)

let () =
  QCheck_base_runner.set_seed 20260806;
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "par"
    [ ( "combinators",
        [ q prop_map_matches_sequential;
          q prop_mapi_matches_sequential;
          q prop_find_first_matches_sequential;
          Alcotest.test_case "exception order" `Quick test_map_exception_order;
          Alcotest.test_case "find_first evaluates prefix" `Quick
            test_find_first_skips_nothing_before_winner;
          Alcotest.test_case "nested batches" `Quick test_nested_batches ] );
      ( "prng",
        [ Alcotest.test_case "stream determinism" `Quick test_prng_stream_deterministic;
          Alcotest.test_case "streams jobs-invariant" `Quick test_prng_streams_jobs_invariant ] );
      ( "obs",
        [ Alcotest.test_case "metrics under contention" `Quick test_metrics_parallel_incr ] );
      ( "e2e",
        [ Alcotest.test_case "PTAS identical at jobs 1 vs 4" `Slow
            test_ptas_identical_across_jobs;
          Alcotest.test_case "multisets identical at jobs 1 vs 4" `Quick
            test_multisets_identical_across_jobs ] ) ]
