#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

    python3 tockbench/smoke_test.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a perturbed fingerprint is reported as a failure, that the traced run
reproduces the untraced fingerprint (and one stepping thread reproduces
three), that two runs of one seed print the same digest, and that run.py
fails without a result when the repository sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "tockbench", "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command + list(extra), cwd=cwd, capture_output=True, text=True,
                          check=False)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    digest = [l.split()[-1] for l in lines if l.startswith("# fingerprint ")]
    return json.loads(lines[-1]), digest[0] if digest else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        digests = []
        for trace in (0, 1):
            proc = run(workload, trace)
            check(proc.returncode == 0, "%s --trace %d exits 0" % (workload, trace))
            res, digest = result(proc)
            digests.append(digest)
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  "%s --trace %d prints the four result keys" % (workload, trace))
            check(res["correct"] and res["attempted"] >= 1,
                  "%s --trace %d is correct (fingerprints agree across deployments, "
                  "threads and tracing)" % (workload, trace))
            printed = {name: m["unit"] for name, m in res["metrics"].items()}
            check(printed == {m["name"]: m["unit"] for m in wanted[trace]},
                  "%s --trace %d prints exactly the BENCHMARK.json metrics with their units"
                  % (workload, trace))
            if workload != "ota_lossy":
                check(res["failed"] == 0, "%s --trace %d has no failed operation"
                      % (workload, trace))
        again = result(run(workload, 0))[1]
        check(digests[0] is not None and digests[0] == digests[1] == again,
              "%s prints one fingerprint digest across runs and trace modes" % workload)
        for trace in (0, 1):
            res, _ = result(run(workload, trace, "--perturb"))
            check(not res["correct"] and res["failed"] >= 1,
                  "%s --trace %d reports a perturbed fingerprint as a failure" % (workload, trace))

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "tockbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("syscall_storm", 0, cwd=bare)
        check(proc.returncode != 0 and "{" not in proc.stdout,
              "without the repository sources run.py fails and prints no result")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
