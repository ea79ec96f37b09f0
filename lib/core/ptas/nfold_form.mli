(** The paper's literal N-fold formulation of the splittable configuration
    ILP (Section 4.1).

    The aggregated MILP solved by {!Splittable_ptas} is equivalent to the
    paper's program, whose variables are duplicated per class u in [C] to
    expose the N-fold block structure: brick u holds (x^u_K, y^u_q,
    z^u_{h,b}, slack), the globally uniform rows are constraints (0)-(3)
    (machine count, module covering, and the per-(h,b) slot/space budgets,
    the latter carrying slack columns), and the locally uniform rows are
    constraints (4)-(5) (class u's own covering/assignment). The paper
    stresses that "the duplication has no meaning itself" — it exists so
    Theorem 1 applies.

    This module builds that exact structure on top of {!Nfold} so that (a)
    the block shape the paper claims (r = O(1/delta^2), s = 2) is checked by
    construction, and (b) the N-fold solver backends can be cross-validated
    against the aggregated oracle on small instances. *)

type built = {
  program : Nfold.t;
  (* brick variable offsets, for decoding *)
  n_configs : int;
  n_modules : int;
  n_hb : int;
}

(** Builds the N-fold for one guess T. Raises [Common.Too_many] if the
    configuration space explodes. *)
val build_splittable : Common.param -> Instance.t -> Rat.t -> built

(** Feasibility of the guess via the N-fold (flattened MILP backend):
    must agree with {!Splittable_ptas.oracle} on every instance. Raises
    {!Common.Budget_exceeded} when undecided within 30000 B&B nodes. *)
val feasible_splittable : Common.param -> Instance.t -> Rat.t -> bool

(** The non-preemptive duplicated N-fold (Section 4.2): locally uniform rows
    are the per-processing-time covering constraints, so [s = |P| + 1];
    modules are the global multiset family over P, as the paper defines
    them. Cross-validated against {!Nonpreemptive_ptas.oracle}. *)
val build_nonpreemptive : Common.param -> Instance.t -> Rat.t -> built

(** Raises {!Common.Budget_exceeded} when undecided within the budget. *)
val feasible_nonpreemptive : Common.param -> Instance.t -> Rat.t -> bool
