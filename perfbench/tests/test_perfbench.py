#!/usr/bin/env python3
"""The benchmark's own tests: metric catalogue, smoke runs, bare directory.

Run from the repository root (each smoke run takes a few seconds; the first
one builds the benchmark):

    python3 perfbench/tests/test_perfbench.py
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("factor_grid2d", "suite_sweep", "serve_mixed")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


def run(workload, trace, seed=5, cwd=ROOT, script=RUN):
    p = subprocess.run([sys.executable, script, "--workload", workload,
                        "--seed", str(seed), "--seconds", "1", "--trace",
                        str(trace), "--size", "smoke"],
                       cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=600)
    return p


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_metric_spec(self):
        bj = load(os.path.join(ROOT, "BENCHMARK.json"))
        spec = load(os.path.join(BENCH, "metrics.json"))
        self.assertEqual(set(bj), {"command", "paths", "run_seconds",
                                   "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in bj["workloads"]], list(WORKLOADS))
        for gate, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                           ("per_layer", ("name", "unit", "better"))):
            self.assertEqual(bj[gate],
                             [{k: m[k] for k in keys} for m in spec[gate]])
        names = [m["name"] for g in ("end_to_end", "per_layer") for m in bj[g]]
        names += [w["name"] for w in bj["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for g in ("end_to_end", "per_layer"):
            for m in bj[g]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
        for m in bj["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in bj["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bj["end_to_end"]))
        for w in bj["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_every_layer_metric_names_what_it_moves(self):
        for m in load(os.path.join(BENCH, "metrics.json"))["per_layer"]:
            self.assertTrue(m.get("moves"), m["name"])


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        p = run(workload, trace)
        self.assertEqual(p.returncode, 0, p.stdout[-3000:] + p.stderr[-3000:])
        out = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        spec = load(os.path.join(BENCH, "metrics.json"))
        gate = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(out["metrics"]), [m["name"] for m in gate])
        for m in gate:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return out

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 0)

    def test_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                out = self.check_run(w, 1)["metrics"]
                self.assertLessEqual(out["obs.unattributed_share"]["value"], 0.02)
                trace = load(os.path.join(ROOT, ".bench_out",
                                          f"{w}-seed5.trace.json"))
                spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
                self.assertTrue(any(e["name"] == "bench.loop" for e in spans))
        grid = self.check_run("factor_grid2d", 1)["metrics"]
        self.assertGreater(grid["exec.wall_s"]["value"], 0)
        self.assertGreater(grid["kernels.ssssm.tasks"]["value"], 0)

    def test_model_metrics_repeat_across_seeds(self):
        # Structures do not depend on the seed, so neither do modelled times.
        for workload, key in (("factor_grid2d", "model_makespan_ms"),
                              ("suite_sweep", "model_speedup_plu")):
            got = []
            for seed in (1, 2):
                self.assertEqual(run(workload, 0, seed=seed).returncode, 0)
                record = load(os.path.join(
                    ROOT, ".bench_out", f"{workload}-seed{seed}-trace0.json"))
                got.append(record["report"][key]["value"])
            self.assertGreater(got[0], 0)
            self.assertEqual(got[0], got[1], workload)


class BareDirectory(unittest.TestCase):
    def test_fails_without_solver_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = run("factor_grid2d", 0, cwd=bare,
                    script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
