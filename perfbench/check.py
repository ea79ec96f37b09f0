"""Independent checker for ccs_solve output.

Reads the instance file itself (text `ccs 1` or binary `ccsb1`), parses
every output form ccs_solve prints -- the makespan header line, the full
per-job schedules and the compressed per-class summaries -- and checks
them against the instance without calling into the program:

  * every job (or, for the compressed forms, every class total) is
    accounted for exactly once;
  * each machine holds at most c classes;
  * every machine load is at most the reported makespan, and the largest
    one equals it;
  * the makespan is at least the benchmark's own lower bound.

`check_output` returns (makespan, lower_bound, proved); it raises
CheckError on any violation.
"""

import re
import struct
from array import array
from fractions import Fraction
from math import lcm

MAGIC = b"ccsb1\n"


class CheckError(Exception):
    pass


class Instance:
    """Jobs with classes renumbered densely (sorted distinct ids -> 0, 1,
    ...) and slots clamped to min(slots, classes), as Instance.make does."""

    def __init__(self, machines, slots, p, cls):
        if not p:
            raise CheckError("instance has no jobs")
        ids = sorted(set(cls))
        if ids != list(range(len(ids))):
            dense = {u: i for i, u in enumerate(ids)}
            cls = array("q", (dense[u] for u in cls))
        self.n = len(p)
        self.m = machines
        self.classes = len(ids)
        self.c = min(slots, self.classes)
        self.p = p
        self.cls = cls
        self.total = sum(p)
        self.pmax = max(p)
        counts = [0] * self.classes
        loads = [0] * self.classes
        for pj, u in zip(p, cls):
            counts[u] += 1
            loads[u] += pj
        self.class_count = counts
        self.class_load = loads

    def lower_bound(self, variant):
        """Average load, plus the largest job where jobs are not split.

        The slot bound (smallest T with sum_u ceil(P_u/T) <= c*m) never
        exceeds the average load when C <= (c-1)*m, which holds for every
        workload shape the benchmark generates, so it is not computed."""
        avg = Fraction(self.total, self.m)
        if variant == "splittable":
            return avg
        if variant == "preemptive":
            return max(avg, Fraction(self.pmax))
        # Integral loads: the optimum is an integer.
        return Fraction(max(-(-self.total // self.m), self.pmax))


def load_instance(path):
    with open(path, "rb") as f:
        data = f.read()
    if data.startswith(MAGIC):
        n, machines, slots = struct.unpack_from("<3q", data, len(MAGIC))
        body = len(MAGIC) + 24
        p = array("q")
        p.frombytes(data[body : body + 8 * n])
        cls = array("q")
        cls.frombytes(data[body + 8 * n : body + 16 * n])
        if len(cls) != n:
            raise CheckError("%s: truncated ccsb1 file" % path)
        return Instance(machines, slots, p, cls)
    machines = slots = None
    p, cls = array("q"), array("q")
    for line in data.split(b"\n"):
        line = line.split(b"#", 1)[0]
        tok = line.split()
        if not tok:
            continue
        if tok[0] == b"job":
            p.append(int(tok[1]))
            cls.append(int(tok[2]))
        elif tok[0] == b"machines":
            machines = int(tok[1])
        elif tok[0] == b"slots":
            slots = int(tok[1])
        elif tok[0] != b"ccs":
            raise CheckError("%s: unexpected line %r" % (path, line[:40]))
    if machines is None or slots is None:
        raise CheckError("%s: missing machines/slots header" % path)
    return Instance(machines, slots, p, cls)


HEADER = re.compile(r"instance: n=(\d+) m=(\d+) c=(\d+) C=(\d+)$")
SUMMARY = re.compile(
    r"(?P<variant>splittable|preemptive|non-preemptive) "
    r"(?:2-approx|7/3-approx|PTAS \(delta=1/\d+\)): makespan (?P<mk>\d+(?:/\d+)?) "
)
EXACT = re.compile(r"non-preemptive exact optimum: (\d+)$")
BUDGET = re.compile(r"exact search out of budget: incumbent (\d+), proven lower bound (\d+)$")


def parse_summary(line, variant):
    """(makespan, proved) from the second output line."""
    m = SUMMARY.match(line)
    if m:
        if m.group("variant").replace("-", "") != variant:
            raise CheckError("summary is for %s, expected %s" % (m.group("variant"), variant))
        return Fraction(m.group("mk")), False
    m = EXACT.match(line)
    if m and variant == "nonpreemptive":
        return Fraction(m.group(1)), True
    m = BUDGET.match(line)
    if m and variant == "nonpreemptive":
        if int(m.group(2)) > int(m.group(1)):
            raise CheckError("proven lower bound above the incumbent")
        return Fraction(m.group(1)), False
    raise CheckError("unrecognised summary line %r" % line[:120])


def _machine(inst, i):
    if not 0 <= i < inst.m:
        raise CheckError("machine %d out of range [0, %d)" % (i, inst.m))
    return i


def _slots(inst, i, classes):
    if len(classes) > inst.c:
        raise CheckError("machine %d holds %d classes > c=%d" % (i, len(classes), inst.c))


def _range(inst, a, b):
    if not 0 <= a <= b < inst.m:
        raise CheckError("machine range %d..%d out of [0, %d)" % (a, b, inst.m))
    return b - a + 1


NP_FULL = re.compile(r"machine (\d+) \(load (\d+)\):((?: j\d+)*)$")


def check_np_full(inst, lines):
    seen = bytearray(inst.n)
    used = set()
    loads = []
    for line in lines:
        m = NP_FULL.match(line)
        if not m:
            raise CheckError("bad machine line %r" % line[:80])
        i = _machine(inst, int(m.group(1)))
        if i in used:
            raise CheckError("machine %d listed twice" % i)
        used.add(i)
        load, classes = 0, set()
        for tok in m.group(3).split():
            j = int(tok[1:])
            if not 0 <= j < inst.n or seen[j]:
                raise CheckError("job %s missing from the instance or scheduled twice" % tok)
            seen[j] = 1
            load += inst.p[j]
            classes.add(inst.cls[j])
        _slots(inst, i, classes)
        if load != int(m.group(2)):
            raise CheckError("machine %d reports load %s, jobs sum to %d" % (i, m.group(2), load))
        loads.append(load)
    if seen.count(0):
        raise CheckError("%d jobs not scheduled" % seen.count(0))
    return loads


NP_ROW = re.compile(r"machines? (\d+)(?:\.\.(\d+))? \(load (\d+)(?: each)?\): (.*)$")
NP_CLS = re.compile(r"class (\d+): (\d+) jobs, load (\d+)(?:, |$)")


def _entries(pattern, rest):
    """Consecutive matches of [pattern] that cover all of [rest]."""
    pos = 0
    while pos < len(rest):
        m = pattern.match(rest, pos)
        if not m:
            raise CheckError("bad class summary %r" % rest[pos : pos + 80])
        pos = m.end()
        yield m


def check_np_compressed(inst, lines):
    counts = [0] * inst.classes
    loads_u = [0] * inst.classes
    used = []
    loads = []
    for line in lines:
        m = NP_ROW.match(line)
        if not m:
            raise CheckError("bad compressed line %r" % line[:80])
        a = int(m.group(1))
        b = int(m.group(2)) if m.group(2) is not None else a
        k = _range(inst, a, b)
        used.append((a, b))
        load, classes = 0, set()
        for pm in _entries(NP_CLS, m.group(4)):
            u, cnt, lu = int(pm.group(1)), int(pm.group(2)), int(pm.group(3))
            if not 0 <= u < inst.classes or u in classes:
                raise CheckError("class %d out of range or repeated on machine %d" % (u, a))
            classes.add(u)
            counts[u] += k * cnt
            loads_u[u] += k * lu
            load += lu
        _slots(inst, a, classes)
        if load != int(m.group(3)):
            raise CheckError("machines %d..%d report load %s, classes sum to %d" % (a, b, m.group(3), load))
        loads.append(load)
    _disjoint(used)
    _class_totals(inst, counts, loads_u)
    return loads


def _disjoint(ranges):
    ranges.sort()
    for (_, b0), (a1, _) in zip(ranges, ranges[1:]):
        if a1 <= b0:
            raise CheckError("machine %d listed twice" % a1)


def _class_totals(inst, counts, loads_u, scale=1):
    """Placed job counts (None: not reported) and loads, the latter in
    units of 1/scale, must equal the instance's per class."""
    for u in range(inst.classes):
        if counts is not None and counts[u] != inst.class_count[u]:
            raise CheckError("class %d: %d jobs placed, instance has %d" % (u, counts[u], inst.class_count[u]))
        if loads_u[u] != inst.class_load[u] * scale:
            raise CheckError("class %d: load %s placed, instance has %d" % (u, Fraction(loads_u[u], scale), inst.class_load[u]))


SPLIT_BLOCK = re.compile(r"machines (\d+)\.\.(\d+): class (\d+), (\d+(?:/\d+)?) each$")
SPLIT_EXPL = re.compile(r"machine (\d+): (.*)$")
SPLIT_PART = re.compile(r"class (\d+): (\d+(?:/\d+)?)$")


def check_splittable(inst, lines, q):
    per_machine = {}  # machine -> {class: scaled load}
    placed = [0] * inst.classes
    for line in lines:
        m = SPLIT_BLOCK.match(line)
        if m:
            a, b, u = int(m.group(1)), int(m.group(2)), int(m.group(3))
            k = _range(inst, a, b)
            x = q(m.group(4))
            parts = [(i, u, x) for i in range(a, b + 1)]
            placed[_cls(inst, u)] += k * x
        else:
            m = SPLIT_EXPL.match(line)
            if not m:
                raise CheckError("bad splittable line %r" % line[:80])
            i = _machine(inst, int(m.group(1)))
            parts = []
            for part in m.group(2).split(", "):
                pm = SPLIT_PART.match(part)
                if not pm:
                    raise CheckError("bad class share %r" % part[:80])
                u, x = int(pm.group(1)), q(pm.group(2))
                parts.append((i, u, x))
                placed[_cls(inst, u)] += x
        for i, u, x in parts:
            if x <= 0:
                raise CheckError("non-positive share of class %d on machine %d" % (u, i))
            row = per_machine.setdefault(i, {})
            row[u] = row.get(u, 0) + x
    for i, row in per_machine.items():
        _slots(inst, i, row)
    _class_totals(inst, None, placed, q.scale)
    return [sum(row.values()) for row in per_machine.values()]


def _cls(inst, u):
    if not 0 <= u < inst.classes:
        raise CheckError("class %d out of range" % u)
    return u


PRE_FULL = re.compile(r"machine (\d+):((?: j\d+@\[\d+(?:/\d+)?,\d+(?:/\d+)?\))*)$")
PRE_PIECE = re.compile(r"j(\d+)@\[(\d+(?:/\d+)?),(\d+(?:/\d+)?)\)")


def check_pre_full(inst, lines, q):
    done = [0] * inst.n
    by_job = {}
    used = set()
    loads = []
    for line in lines:
        m = PRE_FULL.match(line)
        if not m:
            raise CheckError("bad preemptive line %r" % line[:80])
        i = _machine(inst, int(m.group(1)))
        if i in used:
            raise CheckError("machine %d listed twice" % i)
        used.add(i)
        pieces = []
        for pm in PRE_PIECE.finditer(m.group(2)):
            j, s, e = int(pm.group(1)), q(pm.group(2)), q(pm.group(3))
            if not 0 <= j < inst.n or not 0 <= s < e:
                raise CheckError("bad piece %r on machine %d" % (pm.group(0), i))
            done[j] += e - s
            pieces.append((s, e, j))
            by_job.setdefault(j, []).append((s, e))
        _no_overlap(pieces, "machine %d" % i)
        _slots(inst, i, {inst.cls[j] for _, _, j in pieces})
        loads.append(max(e for _, e, _ in pieces))
    for j in range(inst.n):
        if done[j] != inst.p[j] * q.scale:
            raise CheckError("job %d processed for %s, needs %d" % (j, q.frac(done[j]), inst.p[j]))
        _no_overlap(by_job[j], "job %d" % j)
    return loads


def _no_overlap(intervals, what):
    intervals = sorted(intervals)
    for prev, cur in zip(intervals, intervals[1:]):
        if cur[0] < prev[1]:
            raise CheckError("%s runs two pieces at once" % what)


PRE_ROW = re.compile(r"machine (\d+) \(finish (\d+(?:/\d+)?)\): (.*)$")
PRE_CLS = re.compile(r"class (\d+): (\d+) pieces, time (\d+(?:/\d+)?)(?:, |$)")


def check_pre_compressed(inst, lines, q):
    placed = [0] * inst.classes
    used = set()
    loads = []
    for line in lines:
        m = PRE_ROW.match(line)
        if not m:
            raise CheckError("bad compressed preemptive line %r" % line[:80])
        i = _machine(inst, int(m.group(1)))
        if i in used:
            raise CheckError("machine %d listed twice" % i)
        used.add(i)
        finish, busy, classes = q(m.group(2)), 0, set()
        for pm in _entries(PRE_CLS, m.group(3)):
            u, t = int(pm.group(1)), q(pm.group(3))
            if not 0 <= u < inst.classes or u in classes or int(pm.group(2)) < 1:
                raise CheckError("bad class %d entry on machine %d" % (u, i))
            classes.add(u)
            placed[u] += t
            busy += t
        _slots(inst, i, classes)
        if busy > finish:
            raise CheckError("machine %d is busy %s but finishes at %s" % (i, q.frac(busy), q.frac(finish)))
        loads.append(finish)
    _class_totals(inst, None, placed, q.scale)
    return loads


class Scaled:
    """Exact rationals as integers over one common denominator: every
    value printed in an output is a multiple of 1/scale, where scale is
    the lcm of the denominators that occur in it. Integer sums are ~50x
    faster than Fraction sums on a 10^5-machine schedule."""

    def __init__(self, text):
        self.scale = 1
        for d in set(DENOM.findall(text)):
            self.scale = lcm(self.scale, int(d))
        self.cache = {}

    def __call__(self, s):
        v = self.cache.get(s)
        if v is None:
            num, _, den = s.partition("/")
            v = int(num) * (self.scale // int(den or 1))
            self.cache[s] = v
        return v

    def frac(self, v):
        return Fraction(v, self.scale)


DENOM = re.compile(r"/(\d+)")


def check_output(inst, text, variant, compressed):
    """Check one ccs_solve output; returns (makespan, lower_bound, proved)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        raise CheckError("output has %d lines" % len(lines))
    h = HEADER.match(lines[0])
    if not h or tuple(map(int, h.groups())) != (inst.n, inst.m, inst.c, inst.classes):
        raise CheckError("header %r does not match the instance" % lines[0][:80])
    makespan, proved = parse_summary(lines[1], variant)
    body = lines[2:]
    q = Scaled(text)
    if variant == "splittable":
        loads = check_splittable(inst, body, q)
    elif variant == "preemptive":
        loads = (check_pre_compressed if compressed else check_pre_full)(inst, body, q)
    else:
        loads = (check_np_compressed if compressed else check_np_full)(inst, body)
    top = q.frac(max(loads, default=0)) if variant != "nonpreemptive" else max(loads, default=0)
    if top != makespan:
        raise CheckError("largest machine load %s differs from the reported makespan %s" % (top, makespan))
    lb = inst.lower_bound(variant)
    if makespan < lb:
        raise CheckError("makespan %s below the lower bound %s" % (makespan, lb))
    return makespan, lb, proved
