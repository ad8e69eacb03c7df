#!/usr/bin/env python3
"""Self-tests of the wall-clock benchmark.

Run from the repository root (builds the program first, like run.py):

    python3 wallbench/test_wallbench.py

They check BENCHMARK.json against the contract the benchmark is held to,
run every workload at the tiny self-test size untraced and traced, compare
the deterministic outputs of seed 1 with the recorded pins in
tiny_pins.json, and check that the benchmark refuses to run without the
simulator's sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (the build helper)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
HELD_OUT_SEED = 20261017  # never used while the benchmark was built
# Outputs that depend on how the simulator schedules its work rather than on
# what it computes; they must repeat within a run but are not pinned here.
UNPINNED = {"sim.events"}


def load_benchmark():
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as f:
        return json.load(f)


def run_wallbench(binary, workload, seed=1, trace=0, seconds=0.2, spans=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--tiny"]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    pins_line = [line for line in proc.stderr.splitlines() if line.startswith("PINS ")]
    pins = json.loads(pins_line[0][len("PINS "):]) if pins_line else {}
    return proc, result, pins


class WallbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load_benchmark()
        cls.binary = run.build()
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]
        cls.e2e = {m["name"]: m for m in cls.bench["end_to_end"]}
        cls.layer = {m["name"]: m for m in cls.bench["per_layer"]}
        cls.workdir = os.path.join(run.build_dir(), "selftest")
        os.makedirs(cls.workdir, exist_ok=True)

    def test_benchmark_json_shape(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                  "per_layer"})
        self.assertEqual(b["paths"], ["wallbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertEqual(set(self.workloads), set(run.WORKLOADS))
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = self.e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_tiny_runs_pass_and_emit_every_end_to_end_metric(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                proc, result, _ = run_wallbench(self.binary, workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(self.e2e))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], self.e2e[name]["unit"], name)
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_emit_every_per_layer_metric_and_spans(self):
        results = {}
        for workload in self.workloads:
            with self.subTest(workload=workload):
                spans = os.path.join(self.workdir, workload + "-spans.json")
                if os.path.exists(spans):
                    os.remove(spans)
                proc, result, _ = run_wallbench(self.binary, workload, trace=1, spans=spans)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), set(self.layer))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], self.layer[name]["unit"], name)
                with open(spans) as f:
                    doc = json.load(f)
                self.assertEqual(doc["schema"], "wallbench-spans-v1")
                self.assertIn("run_id", doc)
                self.assertTrue(doc["spans"])
                for span in doc["spans"]:
                    self.assertEqual(set(span), {"name", "start_ns", "end_ns", "parent"})
                    self.assertLessEqual(span["start_ns"], span["end_ns"])
                    self.assertLess(span["parent"], len(doc["spans"]))
                results[workload] = {k: v["value"] for k, v in result["metrics"].items()}
        # Layer separation: l2 only on the leaf-spine design, l1s only on
        # the circuit design, the load generator only on the storm, the
        # sharded engine only on the sharded market.
        self.assertGreater(results["leafspine_burst"]["l2.mcast_hw_forwarded"], 0)
        self.assertEqual(results["l1s_burst"]["l2.mcast_hw_forwarded"], 0)
        self.assertEqual(results["l1s_burst"]["l2.unicast_forwarded"], 0)
        self.assertGreater(results["l1s_burst"]["l1s.frames_forwarded"], 0)
        self.assertEqual(results["leafspine_burst"]["l1s.frames_forwarded"], 0)
        self.assertEqual(results["session_storm"]["net.frames_delivered"], 0)
        for workload in ("leafspine_burst", "l1s_burst", "sharded_market"):
            self.assertEqual(results[workload]["loadgen.logins_sent"], 0)
        self.assertGreater(results["session_storm"]["session_store.sessions_created"],
                           results["leafspine_burst"]["session_store.sessions_created"])
        self.assertEqual(results["sharded_market"]["session_store.sessions_created"], 0)
        self.assertGreater(results["sharded_market"]["shard.speedup_4w"], 0)

    def test_seed_one_reproduces_recorded_pins(self):
        with open(os.path.join(BENCH_DIR, "tiny_pins.json")) as f:
            expected = json.load(f)
        for workload in self.workloads:
            with self.subTest(workload=workload):
                _, result, pins = run_wallbench(self.binary, workload, seed=1)
                self.assertTrue(result["correct"])
                got = {k: v for k, v in pins.items() if k not in UNPINNED}
                self.assertEqual(got, expected[workload])

    def test_same_seed_same_outputs_across_processes(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                _, _, first = run_wallbench(self.binary, workload, seed=7, seconds=0.05)
                _, _, second = run_wallbench(self.binary, workload, seed=7, seconds=0.05)
                self.assertTrue(first)
                self.assertEqual(first, second)
                _, _, other = run_wallbench(self.binary, workload, seed=8, seconds=0.05)
                self.assertNotEqual(first, other, "the seed must change the inputs")

    def test_held_out_seed_passes_every_check(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                proc, result, _ = run_wallbench(self.binary, workload, seed=HELD_OUT_SEED)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_layer_doc_lists_every_metric(self):
        with open(os.path.join(BENCH_DIR, "LAYERS.md")) as f:
            doc = f.read()
        for name in list(self.layer) + list(self.e2e) + self.workloads:
            self.assertIn("`%s`" % name, doc, name)

    def test_refuses_to_run_without_the_simulator_sources(self):
        bare = os.path.join(self.workdir, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(REPO_DIR, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "wallbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        proc = subprocess.run([sys.executable, "wallbench/run.py", "--workload",
                               "leafspine_burst", "--seed", "1", "--seconds", "1", "--trace",
                               "0"], cwd=bare, env=env, capture_output=True, text=True,
                              timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
