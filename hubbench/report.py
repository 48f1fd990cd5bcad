"""Regenerate the reference figures quoted in hubbench/README.md.

    python3 hubbench/report.py --seeds 1,2,3 --seconds 15

For every workload and seed it makes one untraced and one traced run,
then prints Markdown: end-to-end medians with their spread, the tracing
overhead (traced minus untraced, as a share of untraced), per-layer
medians from the traced runs, the latency tails with their sample
counts, and the CPU steal seen during the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    path = os.path.join(ROOT, ".hubbench", f"detail-{workload}-{seed}-{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--detail", path],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    with open(path) as handle:
        return json.load(handle)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    print("| workload | metric | untraced median | spread | traced median | overhead |")
    print("|---|---|---|---|---|---|")
    tails, steal, layers = [], [], {}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [run(workload, s, args.seconds, 0) for s in seeds]
        traced = [run(workload, s, args.seconds, 1) for s in seeds]
        steal += [d["steal"] for d in plain + traced]
        layers[workload] = {
            m["name"]: statistics.median(d["layer"][m["name"]] for d in traced)
            for m in spec["per_layer"]
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [d["figures"][name] for d in plain]
            b = [d["figures"][name] for d in traced]
            ma, mb = statistics.median(a), statistics.median(b)
            print(f"| {workload} | {name} ({metric['unit']}) | {ma:.4g} | "
                  f"{spread(a):.1%} | {mb:.4g} | {(mb - ma) / ma:+.1%} |")
        for name in plain[0]["tails"]:
            got = [d["tails"][name] for d in plain if d["tails"][name]]
            if got:
                tails.append(
                    f"- {workload} {name}: {got[0][0]} = "
                    f"{statistics.median(t[1] for t in got):.3f} ms "
                    f"(median over {len(got)} runs of {min(t[2] for t in got)}-"
                    f"{max(t[2] for t in got)} samples each)"
                )
    print()
    print("| per-layer metric | " + " | ".join(layers) + " |")
    print("|---|" + "---|" * len(layers))
    for m in spec["per_layer"]:
        row = " | ".join(f"{layers[w][m['name']]:.4g}" for w in layers)
        print(f"| {m['name']} ({m['unit']}) | {row} |")
    print()
    print("\n".join(tails))
    print(f"\nCPU steal per run: {min(steal):.1%} to {max(steal):.1%} of machine time")


if __name__ == "__main__":
    main()
