"""Tests for the benchmark's own statistics and output checker.

    python3 perfbench/test_perfbench.py
"""

import os
import random
import shutil
import struct
import subprocess
import sys
import tempfile
import unittest
from array import array
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_tail_never_below_median(self):
        # Small runs are where a tail taken as "the 11th largest" falls
        # below the median; both must come from one sorted list.
        rng = random.Random(7)
        for n in range(1, 200):
            for _ in range(5):
                xs = [rng.lognormvariate(0, 1) for _ in range(n)]
                p50, tail, pct = stats.p50_and_tail(xs)
                self.assertGreaterEqual(tail, p50, (n, xs))
                self.assertGreaterEqual(pct, 50.0)

    def test_tail_has_ten_samples_beyond(self):
        xs = list(range(150, 0, -1))
        p50, tail, pct = stats.p50_and_tail(xs)
        self.assertEqual(p50, 75.5)
        self.assertEqual(tail, 140)
        self.assertEqual(sum(1 for x in xs if x > tail), 10)
        self.assertAlmostEqual(pct, 100 * 140 / 150)

    def test_few_samples_report_maximum(self):
        self.assertEqual(stats.p50_and_tail([3.0, 1.0, 2.0]), (2.0, 3.0, 100.0))

    def test_spread(self):
        self.assertEqual(stats.spread([10.0] * 10), 0.0)
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 5.5 / 5.5)


def inst(slots=1):
    # Classes 5 and 9 renumber to 0 and 1, as Instance.make does.
    return check.Instance(2, slots, array("q", [3, 2, 4]), array("q", [5, 5, 9]))


HEAD = "instance: n=3 m=2 c=%d C=2\n"


class CheckerTest(unittest.TestCase):
    def ok(self, text, variant, compressed=False, slots=1):
        return check.check_output(inst(slots), (HEAD % slots) + text, variant, compressed)

    def bad(self, text, variant, compressed=False, slots=1):
        with self.assertRaises(check.CheckError):
            self.ok(text, variant, compressed, slots)

    NP = "non-preemptive 7/3-approx: makespan 5 (guess T=5, <= 7/3 T)\n"

    def test_lower_bounds(self):
        i = inst()
        self.assertEqual(i.lower_bound("splittable"), Fraction(9, 2))
        self.assertEqual(i.lower_bound("preemptive"), Fraction(9, 2))
        self.assertEqual(i.lower_bound("nonpreemptive"), 5)

    def test_np_full(self):
        self.assertEqual(self.ok(self.NP + "machine 0 (load 5): j0 j1\nmachine 1 (load 4): j2\n", "nonpreemptive"), (5, 5, False))
        self.bad(self.NP + "machine 0 (load 5): j0 j1\nmachine 1 (load 7): j2 j0\n", "nonpreemptive")  # j0 twice
        self.bad(self.NP + "machine 0 (load 5): j0 j1\n", "nonpreemptive")  # j2 missing
        self.bad(self.NP + "machine 0 (load 7): j0 j2\nmachine 1 (load 2): j1\n", "nonpreemptive")  # 2 classes, c=1
        self.bad(self.NP + "machine 0 (load 6): j0 j1\nmachine 1 (load 4): j2\n", "nonpreemptive")  # wrong load
        self.bad(self.NP.replace("makespan 5", "makespan 4") + "machine 0 (load 5): j0 j1\nmachine 1 (load 4): j2\n", "nonpreemptive")
        self.bad(self.NP + "machine 2 (load 4): j2\nmachine 0 (load 5): j0 j1\n", "nonpreemptive")  # m=2
        self.bad(self.NP + "machine 0 (load 5): j0 j1\nmachine 1 (load 4): j2\n", "splittable")  # wrong summary

    def test_np_compressed(self):
        good = "machine 0 (load 5): class 0: 2 jobs, load 5\nmachine 1 (load 4): class 1: 1 jobs, load 4\n"
        self.assertEqual(self.ok(self.NP + good, "nonpreemptive", True)[0], 5)
        self.bad(self.NP + good.replace("2 jobs", "1 jobs"), "nonpreemptive", True)
        self.bad(self.NP + "machines 0..1 (load 5 each): class 0: 2 jobs, load 5\n", "nonpreemptive", True)
        two = "machine 0 (load 5): class 0: 1 jobs, load 3, class 1: 1 jobs, load 4\n"
        self.bad(self.NP + two, "nonpreemptive", True)

    def test_exact_summaries(self):
        body = "machine 0 (load 5): j0 j1\nmachine 1 (load 4): j2\n"
        self.assertTrue(self.ok("non-preemptive exact optimum: 5\n" + body, "nonpreemptive")[2])
        budget = "exact search out of budget: incumbent 5, proven lower bound 5\n"
        self.assertFalse(self.ok(budget + body, "nonpreemptive")[2])
        self.bad(budget.replace("bound 5", "bound 6") + body, "nonpreemptive")

    def test_splittable(self):
        head = "splittable 2-approx: makespan 9/2 (guess T=9/4, <= 2T)\n"
        good = "machines 0..0: class 0, 9/2 each\nmachine 1: class 0: 1/2, class 1: 4\n"
        self.assertEqual(self.ok(head + good, "splittable", slots=2)[0], Fraction(9, 2))
        self.bad(head + good.replace("1/2", "1/3"), "splittable", slots=2)  # class 0 short
        self.bad(head + good, "splittable", slots=1)  # machine 1 holds two classes

    def test_preemptive(self):
        head = "preemptive 2-approx: makespan 5 (guess T=5/2, <= 2T)\n"
        self.assertEqual(self.ok(head + "machine 0: j0@[0,3) j1@[3,5)\nmachine 1: j2@[0,4)\n", "preemptive")[0], 5)
        self.bad(head + "machine 0: j0@[0,3) j1@[2,4)\nmachine 1: j2@[0,4)\n", "preemptive")  # machine overlap
        # j0 split across machines with overlapping pieces: it would run
        # in parallel with itself.
        split = head.replace("makespan 5", "makespan 7") + "machine 0: j0@[0,2) j1@[2,4)\nmachine 1: j0@[%s) j2@[3,7)\n"
        self.assertEqual(self.ok(split % "2,3", "preemptive", slots=2)[0], 7)
        self.bad(split % "1,2", "preemptive", slots=2)
        compressed = "machine 0 (finish 5): class 0: 2 pieces, time 5\nmachine 1 (finish 4): class 1: 1 pieces, time 4\n"
        self.assertEqual(self.ok(head + compressed, "preemptive", True)[0], 5)
        self.bad(head + compressed.replace("finish 4", "finish 3"), "preemptive", True)

    def test_binary_instance(self):
        d = tempfile.mkdtemp()
        try:
            path = os.path.join(d, "i.ccsb")
            with open(path, "wb") as f:
                f.write(check.MAGIC + struct.pack("<3q", 3, 2, 1))
                f.write(array("q", [3, 2, 4]).tobytes() + array("q", [0, 0, 1]).tobytes())
            i = check.load_instance(path)
            self.assertEqual((i.n, i.m, i.c, i.classes, i.class_load), (3, 2, 1, 2, [5, 4]))
            with open(os.path.join(d, "i.ccs"), "w") as f:
                f.write("ccs 1\nmachines 2\nslots 1\n# comment\njob 3 5\njob 2 5\njob 4 9\n")
            self.assertEqual(check.load_instance(os.path.join(d, "i.ccs")).class_load, [5, 4])
        finally:
            shutil.rmtree(d)


class SpawnerTest(unittest.TestCase):
    def test_exit_codes_output_and_limit(self):
        import run

        d = tempfile.mkdtemp()
        old, run.CHILD_LIMIT_S = run.CHILD_LIMIT_S, 1
        sp = run.Spawner(dict(os.environ))
        try:
            out = os.path.join(d, "o")
            wall, rc, rss = sp.run(["/bin/sh", "-c", "echo hi; exit 3"], out)
            self.assertEqual(rc, 3)
            self.assertGreater(rss, 0)
            with open(out) as f:
                self.assertEqual(f.read(), "hi\n")
            wall, rc, _ = sp.run(["/bin/sleep", "10"], out)  # killed at the limit
            self.assertEqual(rc, -9)
            self.assertLess(wall, 5)
        finally:
            sp.close()
            run.CHILD_LIMIT_S = old
            shutil.rmtree(d)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_sources(self):
        # With only the benchmark's own files present there is nothing to
        # build: exit nonzero and print no result line.
        d = tempfile.mkdtemp()
        try:
            shutil.copytree(HERE, os.path.join(d, "perfbench"), ignore=shutil.ignore_patterns("_work", "__pycache__"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "exact-bnb", "--seed", "1", "--seconds", "1"],
                cwd=d, capture_output=True, text=True, timeout=60,
            )
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout, "")
        finally:
            shutil.rmtree(d)


if __name__ == "__main__":
    unittest.main()
