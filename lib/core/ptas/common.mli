(** Shared machinery for the three PTASs of Section 4.

    All three follow the same dual-approximation skeleton (Hochbaum-Shmoys):
    a guess T on the makespan, an oracle that either produces a schedule of
    makespan (1+O(delta))T or correctly reports that no schedule of makespan
    T exists, and a geometric binary search driving the guess down. The
    accuracy parameter is delta = 1/d with integral d, as the paper
    assumes. *)

type param = { d : int  (** 1/delta; d >= 1 *) }

val param : int -> param
val delta : param -> Rat.t

(** All multisets (as sorted-descending lists) over the given distinct part
    values, with sum <= [max_sum] and at most [max_count] parts. Includes
    the empty multiset. Raises [Too_many] beyond 200000 multisets (the
    enumeration visits each once) — the configuration spaces of Section 4 are exponential in 1/delta, and
    exceeding the cap means the requested accuracy is out of practical
    reach. *)
exception Too_many

val multisets : parts:int list -> max_sum:int -> max_count:int -> unit -> int list list

(** Like {!multisets} but over distinct [(v, mult)] pairs: part value [v]
    has a limited multiplicity [mult] (used to enumerate the sub-multisets of one class's job-size
    histogram in the non-preemptive PTAS). *)
val bounded_multisets :
  parts:(int * int) list -> max_sum:int -> max_count:int -> unit -> int list list

(** Raised when the branch & bound of a configuration ILP exhausts its
    50000-node budget: the answer is unknown, and silently reporting
    "infeasible" would break the PTAS completeness guarantee, so the
    failure is loud. *)
exception Budget_exceeded

(** One linear row over integer coefficients: [coeffs] are (variable,
    coefficient) pairs. *)
type row = { coeffs : (int * int) list; cmp : Lp.cmp; rhs : int }

val row_eq : (int * int) list -> int -> row
val row_le : (int * int) list -> int -> row

(** Outcome of an interruptible PTAS run (see {!solve_anytime}): the best
    accepted witness with its guess, the highest guess the oracle refuted
    (so no schedule of that makespan exists for the rounded relaxation: a
    lower-bound witness), and whether the search actually finished (in
    which case [result] is the same answer [solve] returns). *)
type 'a anytime = {
  result : ('a * Rat.t) option;
  refuted : Rat.t option;
  complete : bool;
}

(** [geometric_search ~lb ~ub ~delta ~oracle] finds the smallest grid point
    [T = lb * (1+delta)^i] (clamped to [ub]) accepted by the oracle and
    returns the oracle's witness together with the accepted guess. The
    oracle must be monotone (accepting T implies accepting any larger grid
    point); this is the standard dual-approximation argument. Raises
    [Failure] if even [ub] is rejected. *)
val geometric_search :
  lb:Rat.t ->
  ub:Rat.t ->
  delta:Rat.t ->
  oracle:(Rat.t -> 'a option) ->
  unit ->
  'a * Rat.t

(** {2 Lemma 12 grouping}

    Shared by the non-preemptive and the preemptive PTAS (Lemma 15 is the
    same grouping). *)

(** A grouped job: total (original, un-rounded) size and the original job
    ids it carries. All of them go to one machine (non-preemptive) or one
    layer sequence (preemptive). *)
type gjob = { gsize : int; members : int list }

type gclass = {
  large_jobs : gjob list;  (** every size >= delta*T; empty for small classes *)
  small_job : gjob option;  (** single grouped job of size < delta*T *)
}

(** [group_classes inst ~delta_t] groups every class at guess T, where
    [delta_t] is delta*T: jobs smaller than delta*T are bundled into packets
    of total size in [delta*T, 2*delta*T); a leftover bundle of size
    < delta*T is merged into some other job of the class, or forms a
    single-job small class. Indexed by class. *)
val group_classes : Instance.t -> delta_t:Rat.t -> gclass array

(** {2 The configuration ILP}

    All three PTASs decide the same integer program over the variables
    x_K (machines running configuration K, a multiset of module parts),
    y (one per module a large class can be cut into) and w_{s,(h,b)} (small
    classes of rounded size s placed on machines whose configuration has
    part sum h and b parts). Rows, in order: (0) sum x = m; (1) per part
    value, configuration slots = modules chosen; (2,3) per (h,b) group, the
    class slots and space left for small classes; (4) the regime's own
    cover of each large class; (5) every small class assigned once; and
    the Theorem 11 cap when the regime asks for it. *)

(** What the shared rows read of one guess's rounded instance. *)
type shape = {
  parts : int list;  (** the part values, in row (1) order *)
  capacity : int;  (** bound on a configuration's part sum *)
  cstar : int;  (** bound on a configuration's part count *)
  module_parts : int array;  (** the part each y variable supplies, in y order *)
  large : int;  (** number of large classes (reported to the metrics) *)
  smalls : (int * int list) list;
      (** small classes by rounded size: (size in space units, class ids) *)
  part_space : int;  (** space one unit of part sum takes, in space units *)
  tbar : int;  (** a machine's space, in space units *)
  cap : int option;
      (** Theorem 11: at most this many machines run a configuration other
          than the empty one and the one of a single largest part *)
}

(** One guess's ILP: configurations with their (h,b) groups. Variable x_K
    is the configuration's index; see {!y_var} and {!w_var} for the rest. *)
type layout = {
  shape : shape;
  configs : int list array;
  hb_of_config : int array;  (** configuration -> (h,b) group index *)
  hb_groups : (int * int) array;  (** group index -> (h, b) *)
  nvars : int;
}

(** Groups configurations by (part sum, part count), numbering groups in
    order of first appearance. *)
val hb_group : int list array -> int array * (int * int) array

(** Variable of the [i]-th module. *)
val y_var : layout -> int -> int

(** Variable of the [si]-th small size in (h,b) group [hbi]. *)
val w_var : layout -> int -> int -> int

(** [machines l sol] materializes a solution: the configuration index of
    every machine, one machine per unit of each x variable. *)
val machines : layout -> int array -> int array

(** [group_machines l config_of_machine hbi] is the number of machines
    (indices into [config_of_machine]) whose configuration is in (h,b)
    group [hbi], and a function giving the [i]-th of them in ascending
    order: the [group] argument of {!place_smalls}. *)
val group_machines : layout -> int array -> int -> int * (int -> int)

(** [place_smalls l sol ~group place] routes small classes as the w
    variables say and, inside each (h,b) group, deals them round robin,
    largest first, over the group's machines: [group hbi] is the group's
    machine count and its [i]-th machine. Calls [place machine class] for
    each class id of {!shape.smalls}. *)
val place_smalls :
  layout -> int array -> group:(int -> int * (int -> int)) -> (int -> int -> unit) -> unit

(** {2 The dual-approximation driver} *)

(** Everything a regime (splittable, preemptive, non-preemptive) adds to the
    shared scheme; ['r] is its rounded instance, ['s] its schedule. *)
type ('r, 's) regime = {
  name : string;  (** "splittable": names spans, log lines and errors *)
  whole_jobs : bool;  (** a job never runs in parallel: refuse T < pmax *)
  bounds : Instance.t -> Rat.t * Rat.t;
      (** a lower bound and an achievable makespan to search between *)
  one_per_machine : (Instance.t -> 's) option;
      (** optimal schedule when m >= n, if the regime has that shortcut *)
  round : param -> Instance.t -> Rat.t -> 'r * shape;
  cover : 'r -> layout -> row list;  (** row (4) *)
  construct : Instance.t -> 'r -> layout -> int array -> 's;
      (** turns an ILP witness into a schedule *)
  validate : Instance.t -> 's -> (unit, string) result;
  guarantee : param -> Rat.t -> Rat.t;
      (** makespan bound for a schedule accepted at guess T; the accepted
          log line reports it *)
}

type stats = {
  t_accepted : Rat.t;  (** accepted guess; [guarantee] bounds the makespan *)
  oracle_calls : int;
  ilp_vars : int;  (** variables in the accepted configuration ILP *)
}

(** [solve regime param inst] runs the full PTAS (binary search + oracle).
    The returned schedule is already validated against the original
    instance. Raises [Invalid_argument] on unschedulable instances and
    {!Too_many} if the configuration space for this delta explodes. *)
val solve : ('r, 's) regime -> param -> Instance.t -> 's * stats

(** Deadline-tolerant variant: never raises
    {!Ccs_resil.Deadline.Cancelled}; on cancellation the best accepted
    witness so far (if any) and the highest refuted guess are returned with
    [complete = false]. *)
val solve_anytime : ('r, 's) regime -> param -> Instance.t -> 's anytime

(** The feasibility oracle for one guess: [None] means provably no schedule
    with makespan T exists. *)
val oracle : ('r, 's) regime -> param -> Instance.t -> Rat.t -> 's option
