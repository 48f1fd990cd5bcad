"""Run one benchmark workload and print its metrics.

    python3 hubbench/run.py --workload hard-bulk --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric of BENCHMARK.json with ``--trace 0``, every
per-layer metric with ``--trace 1``).  A wrong answer makes the exit
status 1.  ``--tiny`` shrinks every input for the self-check,
``--plant-fault`` serves one vertex's label with every distance one
too large, and ``--detail FILE`` writes latency samples, tails and the
run's figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# NumPy asks for transparent huge pages on large arrays.  Whether the
# kernel grants them depends on how fragmented the host's memory is, so
# with them on, the fleet's summed PSS moved between 317 and 386 MB from
# one quarter hour to the next on unchanged code.  Set before NumPy loads.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import repro  # noqa: E402,F401  (fail fast, before any output, without the program)

import workloads  # noqa: E402
from grade import Tally  # noqa: E402
from tracing import Tracer  # noqa: E402

TRACE_DIR = ".hubbench"


def tail(samples):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it,
    as ``(name, value, sample_count)``; None below forty samples."""
    ordered = sorted(samples)
    best = None
    for q in (0.9, 0.99, 0.999):
        if len(ordered) * (1 - q) >= 10:
            best = (f"p{q * 100:g}", ordered[int(q * len(ordered))], len(ordered))
    return best


def cpu_ticks():
    """``(steal, total)`` jiffies over every CPU, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def stop_resource_tracker():
    """Stop and reap the helper process that multiprocessing starts for
    shared memory.  Left alone it exits only after this process does,
    so it would outlive the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--plant-fault", action="store_true")
    parser.add_argument("--detail")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tracer = Tracer(bool(args.trace))
    tally = Tally()
    sizes = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]
    ctx = workloads.Context(
        args.seed, args.seconds, tracer, tally, sizes, 0 if args.plant_fault else None
    )
    steal_before, total_before = cpu_ticks()
    figures = workloads.WORKLOADS[args.workload](ctx)
    stop_resource_tracker()
    steal_after, total_after = cpu_ticks()
    steal = (steal_after - steal_before) / max(1, total_after - total_before)
    figures["peak_rss_mb"] = workloads.peak_rss_mb()
    values = ctx.layer if args.trace else figures
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"not measured: {', '.join(missing)}")

    tails = {name: tail(samples) for name, samples in ctx.samples.items()}
    print(f"{args.workload} seed={args.seed}: {tally.summary()}; "
          f"CPU steal {steal:.1%} of machine time")
    for name, t in tails.items():
        if t is not None:
            print(f"  {name} {t[0]} = {t[1]:.3f} ms over {t[2]} samples")
    for example in tally.examples:
        print(f"  failure: {example}")
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"end_to_end": figures, "per_layer": ctx.layer})
        print(f"  {len(tracer.spans)} spans written to {path}")
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump({"figures": figures, "layer": ctx.layer, "tails": tails,
                       "steal": steal, "samples": ctx.samples}, handle)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 1 if tally.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
