#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for ccs_solve.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload xl-approx --seed 1 --seconds 15 --trace 0

It builds ccs_gen, ccs_solve and the traced runner with dune, generates
the workload's instance files from --seed with ccs_gen, then runs the real
ccs_solve binary one invocation at a time (closed loop, one client,
--jobs 1) in whole passes over the workload's task list until --seconds
have elapsed. Every output is checked afterwards by check.py, which does
not call into the program.

--trace 0 reports the end-to-end metrics; --trace 1 additionally runs the
in-process traced runner (perfbench/trace) over one pass before and after
the CLI passes and reports the per-layer metrics. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is nonzero
when any output fails the checker or the traced counters do not repeat.
See perfbench/NOTES.md for why each workload exists.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import check  # noqa: E402
import stats  # noqa: E402

VARIANTS = ("splittable", "preemptive", "nonpreemptive")
SETUP_REPS = 3
# A child running longer than this is killed (spawn.py) and counts as
# failed, and no new invocation starts once a run has measured for
# STOP_FACTOR times --seconds, so a hung or slowed program still ends.
CHILD_LIMIT_S = 60
STOP_FACTOR = 6
TARGETS = ("bin/ccs_gen.exe", "bin/ccs_solve.exe", "perfbench/trace/trace.exe")
GEN, SOLVE, TRACE = ("_build/default/" + t for t in TARGETS)
SPAWN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawn.py")
WORK = "perfbench/_work"

XL = ["-n", "1000000", "-m", "100000", "-C", "150000", "-c", "3", "--p-hi", "1000"]
PTAS_SHAPE = ["-n", "30", "-m", "3", "-C", "6", "-c", "3", "--p-hi", "1000", "--family", "zipf"]
BNB_SHAPE = ["-n", "18", "-m", "4", "-C", "4", "-c", "2", "--p-hi", "100", "--family", "bnb-stress"]
PTAS_POOL = 195
BNB_POOL = 150


class Task:
    """One ccs_solve invocation of a pass."""

    def __init__(self, variant, file, args):
        self.variant = variant
        self.file = file
        self.args = args
        self.compressed = "--compress" in args


class Workload:
    def __init__(self, files, tasks, trace):
        self.files = files  # [(file name, ccs_gen args)]
        self.tasks = tasks  # one pass
        self.trace = trace  # traced runner's ALGO FORMAT [options]


def workload(name, seed):
    if name == "xl-approx":
        args = ["--algo", "approx", "--format", "flat", "--compress"]
        return Workload(
            [("xl.ccsb", XL + ["--format", "flat", "--seed", str(seed)])],
            [Task(v, "xl.ccsb", args) for v in VARIANTS],
            ["approx", "flat"],
        )
    if name == "xl-text":
        return Workload(
            [("xl.ccs", XL + ["--seed", str(seed)])],
            [Task("nonpreemptive", "xl.ccs", ["--algo", "approx"])],
            ["approx", "text"],
        )
    if name == "ptas-small":
        files = [("p%03d.ccs" % i, PTAS_SHAPE + ["--seed", str(seed * PTAS_POOL + i)]) for i in range(PTAS_POOL)]
        args = ["--algo", "ptas", "--epsilon", "0.5"]
        return Workload(
            files,
            [Task(VARIANTS[i % 3], f, args) for i, (f, _) in enumerate(files)],
            ["ptas", "text", "--epsilon", "0.5"],
        )
    if name == "exact-bnb":
        files = [("b%03d.ccs" % i, BNB_SHAPE + ["--seed", str(seed * BNB_POOL + i)]) for i in range(BNB_POOL)]
        args = ["--algo", "exact", "--node-limit", "1000000"]
        return Workload(
            files,
            [Task("nonpreemptive", f, args) for f, _ in files],
            ["exact", "text", "--node-limit", "1000000"],
        )


WORKLOADS = ("xl-approx", "xl-text", "ptas-small", "exact-bnb")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def child_env():
    """The caller's environment without OCAMLRUNPARAM and CCS_* settings,
    so no GC tuning or program knob leaks into the measurement."""
    return {k: v for k, v in os.environ.items() if k != "OCAMLRUNPARAM" and not k.startswith("CCS_")}


def build():
    for f in ("dune-project", "bin/ccs_solve.ml", "bin/ccs_gen.ml", "perfbench/trace/trace.ml"):
        if not os.path.isfile(f):
            die("%s not found: run from the root of a ccs source checkout" % f)
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    # No shared dune cache: the build writes only under _build/.
    r = subprocess.run([dune, "build", "--root", ".", "--cache=disabled", *TARGETS], stdout=sys.stderr)
    if r.returncode != 0:
        die("build failed")


class Spawner:
    """The child launcher (spawn.py), one per run, started with the
    scrubbed environment that every child then inherits."""

    def __init__(self, env):
        argv = [sys.executable, "-I", "-S", SPAWN, str(CHILD_LIMIT_S)]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def run(self, argv, out_path):
        """Run one child with stdout in a file; returns (wall seconds,
        exit code, max RSS in MB)."""
        self.proc.stdin.write("\t".join([out_path, out_path + ".err", *argv]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 3:
            die("child launcher failed")
        return float(reply[0]), int(reply[1]), int(reply[2]) / 1024.0

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def solve_argv(task, work):
    return [SOLVE, os.path.join(work, task.file), "--variant", task.variant, "--jobs", "1"] + task.args


def setup(wl, work, sp):
    """Generate every file and make one warm-up invocation, SETUP_REPS
    times; returns the per-repetition seconds."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        for f, args in wl.files:
            if sp.run([GEN] + args + ["-o", os.path.join(work, f)], os.path.join(work, "gen.out"))[1] != 0:
                die("ccs_gen failed for %s" % f)
        sp.run(solve_argv(wl.tasks[0], work), os.path.join(work, "warmup.out"))
        times.append(time.perf_counter() - t0)
    return times


def measure(wl, work, seconds, sp):
    """Whole passes over the task list until `seconds` have elapsed."""
    samples = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        for i, task in enumerate(wl.tasks):
            if time.perf_counter() - t0 > STOP_FACTOR * seconds:
                return samples
            out = os.path.join(work, "out", "%d.txt" % len(samples))
            wall, rc, rss = sp.run(solve_argv(task, work), out)
            samples.append({"task": i, "wall": wall, "rc": rc, "rss": rss, "out": out})
    return samples


def check_samples(wl, work, samples):
    """Check every output after the timed region. Identical bytes from the
    same task are checked once. Adds ok/makespan/lb/proved/bytes."""
    instances = {t.file: check.load_instance(os.path.join(work, t.file)) for t in wl.tasks}
    verdicts = {}
    failures = []
    for s in samples:
        task = wl.tasks[s["task"]]
        inst = instances[task.file]
        with open(s["out"], "rb") as f:
            data = f.read()
        s["bytes"] = len(data)
        s["jobs"] = inst.n
        key = (s["task"], hashlib.sha1(data).digest())
        if key not in verdicts:
            try:
                verdicts[key] = check.check_output(inst, data.decode(), task.variant, task.compressed)
            except (check.CheckError, UnicodeDecodeError) as e:
                verdicts[key] = "%s %s: %s" % (task.file, task.variant, e)
        v = verdicts[key]
        if s["rc"] != 0:
            v = "%s %s: exit code %d" % (task.file, task.variant, s["rc"])
        s["ok"] = not isinstance(v, str)
        if s["ok"]:
            s["makespan"], s["lb"], s["proved"] = v
        else:
            failures.append(v)
        os.remove(s["out"])
        os.remove(s["out"] + ".err")
    return failures


def end_to_end(name, samples, setup_times):
    walls = [s["wall"] for s in samples]
    ok = [s for s in samples if s["ok"]]
    p50, tail, pct = stats.p50_and_tail(walls)
    jobs = sum(s["jobs"] for s in ok)  # a failed invocation schedules nothing
    if name == "exact-bnb":
        proved = sum(1 for s in ok if s["proved"])
    else:
        # Approximations and PTASs claim only their guarantee, which a
        # checked schedule delivers.
        proved = len(ok)
    ratio = stats.geomean([float(s["makespan"] / s["lb"]) for s in ok]) if ok else 0.0
    m = {
        "jobs_per_s": (jobs / sum(walls), "1/s"),
        "req_p50_s": (p50, "s"),
        "req_tail_s": (tail, "s"),
        "ok_frac": (len(ok) / len(samples), "ratio"),
        "proved_frac": (proved / len(samples), "ratio"),
        "makespan_ratio": (ratio, "ratio"),
        "peak_rss_mb": (max(s["rss"] for s in samples), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    few = " (10 or fewer: maximum)" if len(walls) <= 10 else ""
    return m, ["req_tail_s is p%.1f of %d invocations%s" % (pct, len(walls), few)]


def run_trace(wl, work, sp, k):
    argv = [TRACE] + wl.trace + ["%s:%s" % (t.variant, os.path.join(work, t.file)) for t in wl.tasks]
    out = os.path.join(work, "trace%d.jsonl" % k)
    _, rc, _ = sp.run(argv, out)
    if rc != 0:
        with open(out + ".err") as f:
            die("traced runner failed: " + f.read().strip())
    with open(out) as f:
        return [json.loads(line) for line in f]


STAGES = ("io.load", "instance.build", "solve", "validate")


def stage_of(span):
    if span.endswith(".solve"):
        return "solve"
    if span.endswith(".validate"):
        return "validate"
    return span


def trace_counts(spans):
    """Per-run sums of the counters trace.exe reads, and of GC figures over
    the stage spans: gc.* in total, gc.<stage>.* per stage. (The sample
    span also holds the tracer's own bookkeeping.)"""
    c = dict.fromkeys(["approx.%s.minor_words" % v for v in VARIANTS], 0)
    for sp in spans:
        if sp["span"] == "sample":
            for k, v in sp["counters"].items():
                c[k] = c.get(k, 0) + v
            continue
        if sp["span"].startswith("approx."):
            c["approx.%s.minor_words" % sp["variant"]] += sp["minor_words"]
        for k in ("minor_words", "major_collections"):
            for key in ("gc." + k, "gc.%s.%s" % (stage_of(sp["span"]), k)):
                c[key] = c.get(key, 0) + sp[k]
    return c


def unit_of(name):
    for suffix, unit in (("mb_per_s", "MB/s"), ("_s", "s"), ("bytes", "bytes"), ("words", "words"), ("ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(wl, work, samples, runs):
    """Per-layer figures from two traced runs of one pass; returns them
    and the names of counts that differ between the two runs."""
    counts = [trace_counts(r) for r in runs]
    # Major-cycle counts are reported but not compared: with identical
    # allocation (gc.minor_words equal) two exact-bnb runs have ended a
    # different number of major cycles, so they are not a work count.
    mismatch = sorted(
        k
        for k in counts[0].keys() | counts[1].keys()
        if counts[0].get(k) != counts[1].get(k) and not k.endswith("major_collections")
    )
    spans = [sp for sp in runs[0] + runs[1] if sp["span"] != "sample"]
    med = statistics.median
    dur = {}  # (stage, task) -> [seconds]
    by_name = {}  # span name -> [seconds]
    for sp in spans:
        dur.setdefault((stage_of(sp["span"]), sp["sample"]), []).append(sp["dur_s"])
        by_name.setdefault(sp["span"], []).append(sp["dur_s"])
    cli = {}  # task -> CLI walls
    for s in samples:
        cli.setdefault(s["task"], []).append(s["wall"])
    # Derived, not measured: the CLI median minus the traced stage medians.
    unattributed = {i: med(ws) - sum(med(dur[(st, i)]) for st in STAGES) for i, ws in cli.items()}
    loaded = 2 * sum(os.path.getsize(os.path.join(work, t.file)) for t in wl.tasks)
    c = counts[0]
    m = {
        "io.load_s": med(by_name["io.load"]),
        "io.mb_per_s": loaded / 1e6 / sum(by_name["io.load"]),
        "instance.build_s": med(by_name["instance.build"]),
        "solve_s": med([d for (st, _), ds in dur.items() if st == "solve" for d in ds]),
        "schedule.validate_s": med([d for (st, _), ds in dur.items() if st == "validate" for d in ds]),
        "cli.unattributed_s": med(unattributed.values()),
        "cli.output_bytes": sum(s["bytes"] for s in samples[: len(wl.tasks)]),
        "rat.small_hit_ratio": c["rat.small_hits"] / max(1, c["rat.small_hits"] + c["rat.promotions"]),
        "bnb.nogood_hit_ratio": c["bnb.nogood_hits"] / max(1, c["bnb.nodes"]),
    }
    m.update(c)
    # Per-variant breakdown: table only, since a variant a workload does
    # not run has no figure.
    m.update({"%s_s" % name: med(ds) for name, ds in by_name.items()})
    for v in VARIANTS:
        tasks = [i for i in cli if wl.tasks[i].variant == v]
        if tasks:
            m["cli.%s.median_s" % v] = med([w for i in tasks for w in cli[i]])
            m["cli.%s.unattributed_s" % v] = med([unattributed[i] for i in tasks])
    return {k: (v, unit_of(k)) for k, v in m.items()}, mismatch


def declared(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def fmt(value):
    return "%16d" % value if isinstance(value, int) else "%16.6g" % value


def report(figures, trace, correct, attempted, failed, notes):
    """The table (declared metrics, then the rest indented), then the
    result line with exactly the metrics BENCHMARK.json declares."""
    names = declared(trace)
    if any(figures.get(k, (None, None))[1] != u for k, u in names):
        die("metrics do not match BENCHMARK.json")
    metrics = {k: figures[k] for k, _ in names}
    for k, (v, u) in metrics.items():
        print("%-40s %s %s" % (k, fmt(v), u))
    for k in sorted(figures.keys() - metrics.keys()):
        print("  %-38s %s %s" % (k, fmt(figures[k][0]), figures[k][1]))
    for n in notes:
        print("# " + n)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        die("--seed must be >= 0")
    build()
    wl = workload(a.workload, a.seed)
    work = os.path.join(WORK, a.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "out"))
    sp = Spawner(child_env())
    try:
        setup_times = setup(wl, work, sp)
        # The two traced runs bracket the CLI passes, so machine-speed
        # drift reaches both sides of the derived unattributed time.
        traced = [run_trace(wl, work, sp, 1)] if a.trace else []
        samples = measure(wl, work, a.seconds, sp)
        if a.trace:
            traced.append(run_trace(wl, work, sp, 2))
    finally:
        sp.close()
    failures = check_samples(wl, work, samples)
    for f in failures[:10]:
        print("FAILED " + f, file=sys.stderr)
    correct = not failures
    if a.trace:
        figures, mismatch = per_layer(wl, work, samples, traced)
        notes = ["cli.*unattributed_s are derived: CLI median minus traced stage medians"]
        if mismatch:
            print("counter determinism self-check FAILED: %s differ between two traced runs" % ", ".join(mismatch), file=sys.stderr)
            correct = False
    else:
        figures, notes = end_to_end(a.workload, samples, setup_times)
    report(figures, a.trace, correct, len(samples), len(failures), notes)
    shutil.rmtree(work, ignore_errors=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
