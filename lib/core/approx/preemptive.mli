(** The 2-approximation for preemptive CCS (Theorem 5, Algorithms 1 + 2).

    Same framework as the splittable algorithm, with two changes: the lower
    bound becomes [max (pmax, sum p / m)] so that no job is longer than the
    guess T (each job is then cut at most once), and after round robin the
    schedule above each machine's first item is shifted to start at time T
    (Algorithm 2, Figure 2), which separates the two fragments of every cut
    job in time.

    When [m >= n] the problem is trivial — one job per machine is optimal
    with makespan pmax — and is answered directly (this also keeps the
    schedule explicit: w.l.o.g. at most n machines are ever used). *)

type stats = {
  t_guess : Rat.t;
  probes : int;
  repacked : bool;  (** whether the Algorithm 2 shift was applied *)
}

val solve : Instance.t -> Schedule.preemptive * stats

(** The same solve on the flat representation (CSR class views, no per-job
    boxing on the way in); {!solve} is [solve_flat (Instance.to_flat i)]. *)
val solve_flat : Instance.Flat.t -> Schedule.preemptive * stats
