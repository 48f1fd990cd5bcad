"""Seconds-long self-check of the benchmark itself.

    python3 hubbench/selfcheck.py

Runs every workload at tiny scale, untraced and traced, and asserts
that each run is graded correct and prints exactly the metrics
BENCHMARK.json names, with their units.  Then it plants a wrong
distance (``--plant-fault``: one vertex's label served with every
distance one too large) and asserts that the grader fails each run, and
it checks that the benchmark refuses to run without the program's
sources.  Exit status 0 means every check held.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, *extra, cwd=ROOT):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "3",
            "--seconds", "0.5", *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc, result = run(workload, "--tiny", "--trace", str(trace))
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0 and result is not None, f"{label}: exits 0 with a result")
            if result is None:
                print(proc.stderr[-2000:])
                continue
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: correct, {result['attempted']} attempted, none failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == {m["name"]: m["unit"] for m in listed},
                   f"{label}: prints every listed metric with its unit, and no other")
            values = [m["value"] for m in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                   f"{label}: every value is a finite number")
            if trace == 0:
                expect(all(v > 0 for v in values), f"{label}: no end-to-end metric is 0")
        proc, result = run(workload, "--tiny", "--plant-fault")
        expect(proc.returncode == 1 and result is not None and not result["correct"],
               f"{workload}: a planted wrong distance fails the run")

    bare = os.path.join(ROOT, ".hubbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "hubbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "hubbench/run.py", "--workload", "hard-bulk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program's sources the run exits nonzero and prints no result")
    shutil.rmtree(bare)

    print("self-check " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
