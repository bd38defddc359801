#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator):

    python3 perfbench/test_perfbench.py

They build the driver like run.py does and run short iterations of the
workloads, so they take about a minute.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


class SpecTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        spec = bench.load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME_RE)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)), "metric/workload names must be unique")
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(max(m["bound"] for m in e2e.values()), e2e["setup_s"]["bound"])

    def test_recorded_digests_cover_every_workload(self):
        digests = bench.load_digests()
        spec = bench.load_spec()
        for w in spec["workloads"]:
            self.assertIn("1", digests.get(w["name"], {}), w["name"])


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()

    def run_once(self, workload, seed, trace):
        result, _, info = bench.measure(self.binary, workload, seed, 0, trace)
        json.dumps(result)  # the printed line must serialize
        return result, info

    def test_driver_lists_the_spec_workloads(self):
        out = subprocess.run([self.binary, "list"], stdout=subprocess.PIPE, text=True,
                             check=True).stdout.split()
        self.assertEqual(out, [w["name"] for w in bench.load_spec()["workloads"]])

    def test_output_has_every_metric_by_name(self):
        spec = bench.load_spec()
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, _ = self.run_once("sat_mesh16", 1, trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
            for m in wanted:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"])
                self.assertIsInstance(got["value"], (int, float))
            if trace == 0:
                for m in wanted:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_counters_exact_across_two_runs(self):
        # Also covers traced == untraced: every iteration of a run, traced or
        # not, must produce the run's digest or the run reports a failure.
        for workload in ("sat_mesh16", "vfi_thermal_obs_16"):
            a, ia = self.run_once(workload, 1, 1)
            b, ib = self.run_once(workload, 1, 1)
            self.assertTrue(a["correct"] and b["correct"], ia["errors"] + ib["errors"])
            self.assertEqual(ia["digest"], ib["digest"])
            self.assertTrue(ia["exact"])
            self.assertEqual(ia["exact"], ib["exact"])
            for m in bench.load_spec()["per_layer"]:
                if m["unit"] in ("count", "cycles"):
                    self.assertEqual(a["metrics"][m["name"]], b["metrics"][m["name"]], m["name"])

    def test_second_seed_changes_digest_and_passes(self):
        for workload in [w["name"] for w in bench.load_spec()["workloads"]]:
            r1, i1 = self.run_once(workload, 1, 0)
            r2, i2 = self.run_once(workload, 2, 0)
            self.assertTrue(r1["correct"], i1["errors"])
            self.assertTrue(r2["correct"], i2["errors"])
            self.assertEqual(r1["failed"], 0)
            self.assertNotEqual(i1["digest"], i2["digest"], workload)
            self.assertEqual(i1["digest"], bench.load_digests()[workload]["1"], workload)


if __name__ == "__main__":
    unittest.main()
