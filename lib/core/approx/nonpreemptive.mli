(** The 7/3-approximation for non-preemptive CCS (Theorem 6).

    Framework of Algorithm 1 with three changes. The lower bound is
    [max (pmax, ceil (sum p / m))]. The number of sub-classes for a class u
    at guess T is the sharper [C_u = max (C1_u, C2_u)] where [C1_u =
    ceil (P_u / T)] is the area bound and [C2_u = k_u + ceil (l_u / 2)]
    counts machines forced by large jobs: the [k_u] jobs above T/2 cannot
    share a machine; of the jobs in (T/3, T/2], as many as possible are
    greedily paired on top of them (largest fitting first) and the [l_u]
    leftovers fit at most two per machine. Jobs are then distributed into
    the [C_u] sub-classes by LPT, which overfills each sub-class by at most
    one job of size <= T/3, giving sub-class loads <= 4T/3 and overall
    makespan <= LB + 4T/3 <= 7T/3. The makespan guess is integral, so a
    standard binary search replaces the border search. *)

type stats = {
  t_guess : int;
  probes : int;  (** binary-search feasibility evaluations *)
}

(** [cu ~t jobs] computes [C_u] for one class (exposed for the A2 ablation
    and tests): [jobs] are the processing times of the class. *)
val cu : t:int -> int list -> int

(** Area-only variant [C1_u] (ablation A2). *)
val cu_area_only : t:int -> int list -> int

val solve : Instance.t -> Schedule.nonpreemptive * stats

(** The same solve on the flat representation, which is what {!solve} runs
    after [Instance.to_flat]: each class's jobs are presorted once into a
    CSR segment, so a feasibility probe allocates nothing and the whole
    solve is O(n log n + n log ub). *)
val solve_flat : Instance.Flat.t -> Schedule.nonpreemptive * stats

(** Ablation hook: the same core but with a caller-supplied sub-class
    counter (e.g. {!cu_area_only} for ablation A2) — demonstrating that the
    careful [C2_u] computation matters. The counter sees each class's
    processing times in job-index order. [~use_lpt:false] additionally
    replaces the LPT order inside each class split by raw input order
    (ablation A3). Either way the schedule stays valid, only worse. With
    [~counter:cu] and LPT this is {!solve}. *)
val solve_with_counter :
  ?use_lpt:bool ->
  counter:(t:int -> int list -> int) ->
  Instance.t ->
  Schedule.nonpreemptive * stats
