"""The three workloads, each a closed loop against the public API.

A workload function takes a :class:`Context` and returns its
end-to-end figures; per-layer figures go into ``ctx.layer`` and are
filled only by traced runs.  Server settings are the program's
defaults (``max_queue=1024``, ``max_batch=64``, ``max_delay=0.002``,
``cache_size=4096``); the fleet runs ``processes=2``.
"""

from __future__ import annotations

import ctypes
import gc
import multiprocessing
import random
import resource
import statistics
import threading
import time
from time import perf_counter

import numpy as np

import inputs
from grade import adjacency

#: ``qps`` is the median over this many equal-work segments of the timed phase.
SEGMENTS = 32
#: A churn-road run makes one round per this many seconds of
#: ``--seconds`` (20 rounds for 15 s, which take 11-16 s here), however
#: fast the machine is, so every run makes the same edits.  With rounds
#: run against a deadline, a fast run reached further into the edit
#: script, and its median edit latency took in more of the cheap
#: incremental repairs: the median moved by more than the machine's
#: speed did.
CHURN_ROUND_S = 0.75
#: Seeded sources per static run; one BFS from each grades every served
#: answer that has it as an endpoint.
GRADED_SOURCES = 32
OVERLOAD_RETRIES = 5
RESULT_TIMEOUT = 60.0

# ``updates``: edits a static workload takes the static way (full build,
# swap).  ``dyn_edits``: edits its traced run also makes through
# ``DynamicHubLabeling`` on the same graph.
FULL = {
    "hard-bulk": {"b": 2, "ell": 2, "width": 4096, "pool": 64, "warm": 8,
                  "replay": 8, "setups": 3, "updates": 2, "dyn_edits": 1},
    "fleet-zipf": {"n": 20000, "attach": 2, "width": 256, "pool": 512,
                   "warm": 32, "replay": 64, "setups": 3, "updates": 2, "dyn_edits": 2},
    "churn-road": {"rows": 45, "cols": 45, "width": 64, "pool": 256,
                   "windows": 48, "warm": 8, "replay": 64, "setups": 7},
}

#: Seconds-long sizes for the self-check.
TINY = {
    "hard-bulk": {"b": 1, "ell": 1, "width": 256, "pool": 8, "warm": 2,
                  "replay": 4, "setups": 2, "updates": 2, "dyn_edits": 1},
    "fleet-zipf": {"n": 600, "attach": 2, "width": 64, "pool": 16,
                   "warm": 4, "replay": 8, "setups": 2, "updates": 2, "dyn_edits": 2},
    "churn-road": {"rows": 8, "cols": 8, "width": 32, "pool": 16,
                   "windows": 4, "warm": 2, "replay": 8, "setups": 2},
}


class Context:
    """One run: its knobs, its tallies, its tracer and its figures.

    ``plant`` is None, or (for the self-check) any int: the workload
    then picks the vertex whose label it serves perturbed, with
    :func:`plant_vertex`, and stores it here.
    """

    def __init__(self, seed, seconds, tracer, tally, sizes, plant):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.tally = tally
        self.sizes = sizes
        self.plant = plant
        self.layer = {}
        self.samples = {}
        # Traced runs set up once: their end-to-end figures are not
        # used, and the dynamic pass over G(2,2) needs the time.
        self.setups = 1 if tracer.enabled else sizes["setups"]

    def span(self, name):
        return self.tracer.span(name)


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# glibc raises its mmap threshold whenever a large mmapped block is
# freed.  From the second label build in a process on, the build's
# transient arrays therefore come from the heap, and their freed pages
# stay resident beside the new store: G(2,2) ended its first build at
# about 150 MB PSS and every later one at 450 MB.  Trimming the heap
# after every set-up repetition returns those pages, so the memory
# figures do not depend on how many builds came before.
try:
    _LIBC = ctypes.CDLL("libc.so.6")
except OSError:
    _LIBC = None


def trim_heap():
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def smaps_mb(pid, field):
    """One ``/proc/<pid>/smaps_rollup`` field, in MB."""
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


def fleet_pids():
    return [child.pid for child in multiprocessing.active_children()]


def segment_qps(events, start):
    """Median pairs/s over equal-count segments of completion events.

    ``events`` start with ``(end_time, pairs)``; segment ``i`` runs from the
    end of segment ``i-1`` (the phase start for the first) to the end
    of its last event, so CPU stolen during one segment moves only it.
    """
    events = sorted(events)
    per = max(1, len(events) // SEGMENTS)
    rates = []
    begin = start
    for i in range(0, len(events) - per + 1, per):
        chunk = events[i:i + per]
        end = chunk[-1][0]
        rates.append(sum(e[1] for e in chunk) / (end - begin))
        begin = end
    return statistics.median(rates)


def perturbed(flat, vertex):
    """A copy of ``flat`` with every distance in ``vertex``'s label +1.

    Every ``d(vertex, x)`` it serves is then one too large: the planted
    fault the self-check expects the grader to catch.
    """
    from repro.perf.flat import FlatHubLabeling

    offsets, hubs, dists = [0], [], []
    for v, label in flat.items():
        for hub in sorted(label):
            hubs.append(hub)
            dists.append(label[hub] + (1 if v == vertex else 0))
        offsets.append(len(hubs))
    return FlatHubLabeling.from_arrays(offsets, hubs, dists)


def flat_oracle(flat):
    from repro.oracles.oracle import HubLabelOracle

    return HubLabelOracle(flat, backend="flat")


def start_server(flat):
    from repro.serve.server import QueryServer

    return QueryServer(flat_oracle(flat)).start()


def start_fleet(flat):
    from repro.serve.sharded import ShardedQueryServer

    return ShardedQueryServer(flat, processes=2).start()


def build_labels(ctx, graph):
    from repro.perf.build import build_flat_labels

    before = peak_rss_mb()
    with ctx.span("build.flat"):
        flat = build_flat_labels(graph)
    ctx.layer.setdefault("build.rss_delta_mb", peak_rss_mb() - before)
    return flat


# ----------------------------------------------------------------------
# Windows
# ----------------------------------------------------------------------
def send(ctx, server, us, vs, counts, name="server"):
    """One closed-loop window; ``(answers, seconds)`` or ``(None, _)``.

    Overload is retried with backoff; a window still refused counts as
    dropped, an exception as raised.  ``counts`` is a per-thread tally.
    """
    from repro.runtime.errors import ServerOverloadError

    width = len(us)
    counts["pairs"] += width
    started = perf_counter()
    with ctx.span(name + ".window"):
        for attempt in range(OVERLOAD_RETRIES + 1):
            try:
                with ctx.span(name + ".submit"):
                    ticket = server.submit_batch(us, vs)
                break
            except ServerOverloadError:
                time.sleep(0.001 * 2 ** attempt)
            except Exception as exc:
                return raised(counts, width, exc)
        else:
            counts["dropped"] += width
            return None, 0.0
        try:
            with ctx.span(name + ".wait"):
                answers = ticket.result(timeout=RESULT_TIMEOUT)
        except Exception as exc:
            return raised(counts, width, exc)
    return answers, perf_counter() - started


def raised(counts, width, exc):
    counts["raised"] += width
    counts["errors"].append(repr(exc))
    return None, 0.0


def new_counts():
    return {"pairs": 0, "dropped": 0, "raised": 0, "errors": []}


def merge_counts(ctx, counts):
    ctx.tally.pairs += counts["pairs"]
    ctx.tally.dropped += counts["dropped"]
    ctx.tally.raised += counts["raised"]
    ctx.tally.examples.extend(counts["errors"][:5])


def closed_loop(ctx, server, pools, warm):
    """Each pool is one client thread cycling its windows until the
    deadline.  Returns ``(events, start, answered)``: ``events`` are
    ``(end_time, pairs, seconds)`` per served window and ``answered``
    maps ``(client, window)`` to the last answers served for it."""
    counts = [new_counts() for _ in pools]
    for pool, count in zip(pools, counts):
        for us, vs in pool[-warm:]:
            send(ctx, server, us, vs, count)
    events, answered = [], {}
    lock = threading.Lock()
    barrier = threading.Barrier(len(pools) + 1)
    deadline = [0.0]

    def client(index):
        pool, count, mine = pools[index], counts[index], []
        barrier.wait()
        i = 0
        while perf_counter() < deadline[0]:
            us, vs = pool[i % len(pool)]
            answers, seconds = send(ctx, server, us, vs, count)
            if answers is not None:
                mine.append((perf_counter(), len(us), seconds))
                answered[(index, i % len(pool))] = answers
            i += 1
        with lock:
            events.extend(mine)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(pools))]
    for thread in threads:
        thread.start()
    start = perf_counter()
    deadline[0] = start + ctx.seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    for count in counts:
        merge_counts(ctx, count)
    return events, start, answered


# ----------------------------------------------------------------------
# Grading
# ----------------------------------------------------------------------
def plant_vertex(seed, windows):
    """A seeded endpoint of the served windows, apart from the first
    pair (which the grader always checks), for the planted fault."""
    rng = random.Random(seed * 7919 + 17)
    us, vs = windows[0]
    anchor = {int(us[0]), int(vs[0])}
    while True:
        us, vs = windows[rng.randrange(len(windows))]
        v = int((us, vs)[rng.randrange(2)][rng.randrange(len(us))])
        if v not in anchor:
            return v


def grade_static(ctx, server, adj, pools, answered):
    """BFS-grade the first pair and every served answer that touches
    one of ``GRADED_SOURCES`` seeded sources, then check ``d(u,u) = 0``
    and symmetry through the server."""
    tally = ctx.tally
    keys = sorted(answered)
    us = np.concatenate([pools[c][w][0] for c, w in keys])
    vs = np.concatenate([pools[c][w][1] for c, w in keys])
    got = [a for key in keys for a in answered[key]]
    us0, vs0 = pools[0][0]
    tally.grade(adj, int(us0[0]), int(vs0[0]), answered[(0, 0)][0])
    endpoints = np.unique(np.concatenate((us, vs))).tolist()
    rng = random.Random(ctx.seed)
    for source in rng.sample(endpoints, min(GRADED_SOURCES, len(endpoints))):
        tally.grade_source(adj, source, us, vs, got)
    counts = new_counts()
    k = min(256, len(us0))
    selves = np.array(sorted(set(us0[:64].tolist())), dtype=np.int64)
    answers, _ = send(ctx, server, selves, selves, counts, "check")
    for u, got_self in zip(selves.tolist(), answers or []):
        tally.check(f"d({u},{u})", 0, got_self)
    answers, _ = send(ctx, server, vs0[:k], us0[:k], counts, "check")
    forward = answered[(0, 0)][:k]
    for u, v, back, fwd in zip(us0[:k].tolist(), vs0[:k].tolist(), answers or [], forward):
        tally.check(f"d({v},{u}) vs d({u},{v})", fwd, back)
    merge_counts(ctx, counts)


# ----------------------------------------------------------------------
# Per-layer probes (traced runs only)
# ----------------------------------------------------------------------
def replay(ctx, server, windows, name):
    """Send ``windows`` twice from one client, timing the second pass;
    returns the server's ``stats()`` around that pass."""
    counts = new_counts()
    for us, vs in windows:
        send(ctx, server, us, vs, counts, "warm")
    before = server.stats()
    for us, vs in windows:
        send(ctx, server, us, vs, counts, name)
    merge_counts(ctx, counts)
    return before, server.stats()


def server_layer(ctx, name, before, after):
    ctx.layer["server.submit_ms"] = ctx.tracer.median_ms(name + ".submit")
    ctx.layer["server.wait_ms"] = ctx.tracer.median_ms(name + ".wait")
    ctx.layer["cache.hit_ratio"] = (
        (after.cache_hits - before.cache_hits) / (after.requests - before.requests)
    )


def kernel_layer(ctx, oracle, windows, served, answered):
    """The same windows straight through ``HubLabelOracle.batch_query``;
    answers must equal what the server gave for those windows."""
    arrays = [np.column_stack((us, vs)) for us, vs in windows]
    oracle.batch_query(arrays[0])
    for i, arr in enumerate(arrays):
        with ctx.span("kernel.window"):
            answers = oracle.batch_query(arr)
        for j, (want, got) in enumerate(zip(answered.get((0, i), ()), answers)):
            ctx.tally.check(f"kernel d({arr[j, 0]},{arr[j, 1]})", want, got)
    spent = sum(ctx.tracer.durations_ms("kernel.window")) / 1e3
    ctx.layer["kernel.window_p50_ms"] = ctx.tracer.median_ms("kernel.window")
    ctx.layer["kernel.qps"] = sum(len(a) for a in arrays) / spent
    ctx.layer["server.overhead_ms"] = (
        ctx.tracer.median_ms(served + ".window") - ctx.layer["kernel.window_p50_ms"]
    )


def fleet_layer(ctx, fleet, frames_before, stats_before):
    frames = [a - b for a, b in zip(fleet.health().frames, frames_before)]
    ctx.layer["fleet.frame_balance"] = min(frames) / max(frames)
    stats = fleet.stats()
    ctx.layer["fleet.worker_cache_hit_ratio"] = (
        (stats.cache_hits - stats_before.cache_hits)
        / (stats.requests - stats_before.requests)
    )
    workers = fleet_pids()
    ctx.layer["fleet.worker_private_mb"] = sum(
        smaps_mb(pid, "Private_Clean") + smaps_mb(pid, "Private_Dirty") for pid in workers
    )
    ctx.layer["shm.segment_mb"] = sum(
        smaps_mb(pid, "Pss_Shmem") for pid in ["self"] + workers
    )


def ipc_layer(ctx, fleet, flat, windows):
    """Fleet window minus in-process window on a replay of the same
    windows; returns the in-process server's stats around its replay."""
    replay(ctx, fleet, windows, "replay.fleet")
    server = start_server(flat)
    try:
        stats = replay(ctx, server, windows, "replay.inproc")
    finally:
        server.stop()
    ctx.layer["fleet.start_s"] = ctx.tracer.median_ms("fleet.start") / 1e3
    ctx.layer["fleet.ipc_overhead_ms"] = (
        ctx.tracer.median_ms("replay.fleet.window")
        - ctx.tracer.median_ms("replay.inproc.window")
    )
    return stats


def fleet_probe(ctx, flat, windows):
    """Fleet figures for the in-process workloads: a two-worker fleet
    over the same labels, replaying the same windows."""
    with ctx.span("fleet.start"):
        fleet = start_fleet(flat)
    try:
        frames, stats = fleet.health().frames, fleet.stats()
        ipc_layer(ctx, fleet, flat, windows)
        fleet_layer(ctx, fleet, frames, stats)
    finally:
        fleet.stop()


def dynamic_pass(ctx, n, edges, server, windows, wrap):
    """Dynamic-layer figures for the static workloads: their own graph
    in a ``DynamicHubLabeling``, ``dyn_edits`` edits of it, each
    hot-swapped into the live server and followed by a graded window.
    Leaves the server on the edited graph's labels."""
    from repro.dynamic import DynamicHubLabeling

    with ctx.span("dynamic.init"):
        dyn = DynamicHubLabeling(inputs.to_graph(n, edges))
    script = inputs.ChurnScript(n, edges)
    reports = []
    for r in range(ctx.sizes["dyn_edits"]):
        done = mutate(ctx, dyn, server, script, wrap)
        if done is not None:
            reports.append(done[0])
        churn_windows(ctx, server, script.adj, windows, r, 1)
    dynamic_layer(ctx, n, reports)


def build_layer(ctx, flat):
    ctx.layer["build.flat_s"] = ctx.tracer.median_ms("build.flat") / 1e3
    ctx.layer["build.entries"] = flat.total_size()
    ctx.layer["label.bytes_per_entry"] = flat.space_bytes() / flat.total_size()
    ctx.layer["kernel.first_call_ms"] = ctx.tracer.median_ms("kernel.first_call")


def first_call(ctx, flat, window):
    """The first batch on a fresh store pays for the lazy accelerator."""
    with ctx.span("kernel.first_call"):
        flat_oracle(flat).batch_query(np.column_stack(window))


# ----------------------------------------------------------------------
# Churn
# ----------------------------------------------------------------------
def mutate(ctx, dyn, server, script, wrap):
    """Apply the next edit through ``dyn`` and publish ``wrap(flat)``,
    then check ``d(u,v)`` through the server.  Returns ``(report, flat,
    seconds)``, or None when the edit or its publication raised."""
    op, u, v = script.next()
    ctx.tally.mutations += 1
    started = perf_counter()
    try:
        with ctx.span("dynamic.mutate"):
            report = dyn.insert_edge(u, v) if op == "insert" else dyn.delete_edge(u, v)
        with ctx.span("dynamic.flat"):
            flat = dyn.flat()
        if ctx.plant is not None:
            flat = perturbed(flat, ctx.plant)
        with ctx.span("serve.swap"):
            server.set_oracle(wrap(flat))
    except Exception as exc:
        ctx.tally.raised += 1
        ctx.tally.examples.append(f"{op} {{{u}, {v}}}: {exc!r}")
        return None
    seconds = perf_counter() - started
    check_edit(ctx, server, script.adj, op, u, v)
    return report, flat, seconds


def check_edit(ctx, server, adj, op, u, v):
    """``d(u,v)`` right after an edit: 1 after an insert, the BFS
    distance over the edited graph after a delete."""
    counts = new_counts()
    answers, _ = send(ctx, server, [u], [v], counts, "check")
    ctx.tally.grade(adj, u, v, (answers or [None])[0])
    merge_counts(ctx, counts)


def churn_windows(ctx, server, adj, windows, round_index, count):
    """``count`` windows after a swap.  The first pair, and every answer
    that touches one seeded source, are BFS-graded.  Returns the served
    windows' pair counts and latencies."""
    counts = new_counts()
    served, graded = [], []
    for k in range(count):
        us, vs = windows[(round_index * count + k) % len(windows)]
        name = "serve.post_swap" if k == 0 else "server"
        answers, seconds = send(ctx, server, us, vs, counts, name)
        if answers is None:
            continue
        served.append((len(us), seconds))
        graded.append((us, vs, answers))
    merge_counts(ctx, counts)
    if graded:
        us, vs, answers = graded[0]
        ctx.tally.grade(adj, int(us[0]), int(vs[0]), answers[0])
        us = np.concatenate([g[0] for g in graded])
        vs = np.concatenate([g[1] for g in graded])
        answers = [a for g in graded for a in g[2]]
        rng = random.Random(ctx.seed * 1000003 + round_index)
        source = int((us, vs)[rng.randrange(2)][rng.randrange(len(us))])
        ctx.tally.grade_source(adj, source, us, vs, answers)
    return served


def dynamic_layer(ctx, n, reports):
    tracer = ctx.tracer
    ctx.layer["dynamic.init_s"] = tracer.median_ms("dynamic.init") / 1e3
    ctx.layer["dynamic.mutate_ms"] = tracer.median_ms("dynamic.mutate")
    ctx.layer["dynamic.affected_fraction"] = statistics.median(
        r.affected_roots / n for r in reports
    )
    ctx.layer["dynamic.rebuild_ratio"] = sum(r.rebuilt for r in reports) / len(reports)
    ctx.layer["dynamic.labels_rewritten"] = statistics.median(
        r.labels_removed + r.labels_added for r in reports
    )
    ctx.layer["dynamic.flat_ms"] = tracer.median_ms("dynamic.flat")
    ctx.layer["serve.swap_ms"] = tracer.median_ms("serve.swap")
    ctx.layer["serve.post_swap_window_ms"] = tracer.median_ms("serve.post_swap.window")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def static_updates(ctx, graph, server, script, wrap):
    """Edits taken the way a static deployment takes them: edit the
    graph, rebuild every label with ``build_flat_labels``, swap the new
    store into the live server.  ``updates`` edits (a shortcut inserted,
    then deleted, so the graph ends as it began); returns the median
    milliseconds from the edit call until ``set_oracle`` returns."""
    times = ctx.samples["update_ms"] = []
    for _ in range(ctx.sizes["updates"]):
        op, u, v = script.next()
        ctx.tally.mutations += 1
        started = perf_counter()
        try:
            if op == "insert":
                graph.add_edge(u, v)
            else:
                graph.remove_edge(u, v)
            flat = build_labels(ctx, graph)
            if ctx.plant is not None:
                flat = perturbed(flat, ctx.plant)
            with ctx.span("serve.swap"):
                server.set_oracle(wrap(flat))
        except Exception as exc:
            ctx.tally.raised += 1
            ctx.tally.examples.append(f"{op} {{{u}, {v}}}: {exc!r}")
            continue
        times.append((perf_counter() - started) * 1e3)
        check_edit(ctx, server, script.adj, op, u, v)
    return statistics.median(times)


def static_workload(ctx, n, edges, pools, fleet, layers):
    """Shared shape of ``hard-bulk`` and ``fleet-zipf``: build and start
    ``setups`` times, run the clients, grade, then take ``updates``
    edits by rebuilding and swapping."""
    start = start_fleet if fleet else start_server
    wrap = (lambda store: store) if fleet else flat_oracle
    if ctx.plant is not None:
        ctx.plant = plant_vertex(ctx.seed, pools[0])
    graph = inputs.to_graph(n, edges)
    setup, server, flat = [], None, None
    for _ in range(ctx.setups):
        if server is not None:
            server.stop()
            server = flat = None
            gc.collect()
        started = perf_counter()
        flat = build_labels(ctx, graph)
        if ctx.plant is not None:
            flat = perturbed(flat, ctx.plant)
        with ctx.span("fleet.start" if fleet else "server.start"):
            server = start(flat)
        setup.append(perf_counter() - started)
        trim_heap()
    ctx.samples["setup_peak_rss_mb"] = [peak_rss_mb()]
    try:
        if ctx.tracer.enabled:
            first_call(ctx, flat, pools[0][-1])
        stats_before = server.stats()
        frames_before = server.health().frames if fleet else None
        events, began, answered = closed_loop(ctx, server, pools, ctx.sizes["warm"])
        ctx.samples["window_ms"] = [e[2] * 1e3 for e in events]
        ctx.samples["setup_s"] = setup
        figures = {
            "setup_s": statistics.median(setup),
            "qps": segment_qps(events, began),
            "window_p50_ms": statistics.median(ctx.samples["window_ms"]),
            "fleet_pss_mb": sum(smaps_mb(pid, "Pss") for pid in ["self"] + fleet_pids()),
            "label_mb": flat.space_bytes() / 1e6,
        }
        grade_static(ctx, server, adjacency(n, edges), pools, answered)
        if ctx.tracer.enabled:
            layers(server, flat, stats_before, frames_before, answered)
            build_layer(ctx, flat)
        flat = None
        script = inputs.ChurnScript(n, edges)
        figures["update_p50_ms"] = static_updates(ctx, graph, server, script, wrap)
        if ctx.tracer.enabled:
            dynamic_pass(ctx, n, edges, server, pools[0], wrap)
    finally:
        server.stop()
    return figures


def hard_bulk(ctx):
    """G(2,2), one client, uniform 4096-pair windows, in-process server;
    then two edits, each rebuilt and swapped in."""
    s = ctx.sizes
    n, edges = inputs.hard_instance_edges(s["b"], s["ell"])
    pools = [inputs.uniform_windows(n, s["pool"], s["width"], ctx.seed)]
    windows = pools[0][: s["replay"]]

    def layers(server, flat, stats_before, _frames, answered):
        server_layer(ctx, "server", stats_before, server.stats())
        kernel_layer(ctx, flat_oracle(flat), windows, "server", answered)
        fleet_probe(ctx, flat, windows)

    return static_workload(ctx, n, edges, pools, False, layers)


def fleet_zipf(ctx):
    """Barabasi-Albert graph, two clients with Zipf 256-pair windows,
    a two-process fleet over shared memory; then two edits, each
    rebuilt and swapped in."""
    s = ctx.sizes
    n, edges = inputs.barabasi_albert_edges(s["n"], s["attach"])
    pools = [
        inputs.zipf_windows(n, s["pool"], s["width"], ctx.seed * 2 + c) for c in range(2)
    ]
    windows = pools[0][: s["replay"]]

    def layers(fleet, flat, stats_before, frames_before, answered):
        fleet_layer(ctx, fleet, frames_before, stats_before)
        server_layer(ctx, "replay.inproc", *ipc_layer(ctx, fleet, flat, windows))
        kernel_layer(ctx, flat_oracle(flat), windows, "replay.inproc", answered)

    return static_workload(ctx, n, edges, pools, True, layers)


def churn_road(ctx):
    """A fixed road map edited by a seeded script; every edit is
    published into a live in-process server, then Zipf windows follow."""
    from repro.dynamic import DynamicHubLabeling

    s = ctx.sizes
    n, edges = inputs.road_edges(s["rows"], s["cols"])
    windows = inputs.zipf_windows(n, s["pool"], s["width"], ctx.seed)
    script = inputs.ChurnScript(n, edges)
    if ctx.plant is not None:
        ctx.plant = plant_vertex(ctx.seed, windows)
    if ctx.tracer.enabled:
        flat = build_labels(ctx, inputs.to_graph(n, edges))
        first_call(ctx, flat, windows[-1])
        build_layer(ctx, flat)
    setup, server = [], None
    for _ in range(ctx.setups):
        if server is not None:
            server.stop()
            server = dyn = flat = None
            gc.collect()
        graph = inputs.to_graph(n, edges)
        started = perf_counter()
        with ctx.span("dynamic.init"):
            dyn = DynamicHubLabeling(graph)
        flat = dyn.flat()
        if ctx.plant is not None:
            flat = perturbed(flat, ctx.plant)
        with ctx.span("server.start"):
            server = start_server(flat)
        setup.append(perf_counter() - started)
        trim_heap()
    ctx.samples["setup_s"] = setup
    rounds, reports, label_bytes, pss = [], [], [], []
    updates = ctx.samples["update_ms"] = []
    windows_ms = ctx.samples["window_ms"] = []
    try:
        counts = new_counts()
        for us, vs in windows[-s["warm"]:]:
            send(ctx, server, us, vs, counts, "warm")
        merge_counts(ctx, counts)
        stats_before = server.stats()
        for r in range(max(3, round(ctx.seconds / CHURN_ROUND_S))):
            done = mutate(ctx, dyn, server, script, flat_oracle)
            spent = 0.0
            if done is not None:
                reports.append(done[0])
                flat = done[1]
                spent = done[2]
                updates.append(spent * 1e3)
                label_bytes.append(flat.space_bytes())
            served = churn_windows(ctx, server, script.adj, windows, r, s["windows"])
            spent += sum(t for _, t in served)
            if spent:
                rounds.append(sum(p for p, _ in served) / spent)
            windows_ms.extend(t * 1e3 for _, t in served)
            pss.append(smaps_mb("self", "Pss"))
        if ctx.tracer.enabled:
            server_layer(ctx, "server", stats_before, server.stats())
            dynamic_layer(ctx, n, reports)
            replayed = windows[: s["replay"]]
            kernel_layer(ctx, server.oracle, replayed, "server", {})
            fleet_probe(ctx, flat, replayed)
    finally:
        server.stop()
    return {
        "setup_s": statistics.median(setup),
        "qps": statistics.median(rounds),
        "window_p50_ms": statistics.median(windows_ms),
        "update_p50_ms": statistics.median(updates),
        "fleet_pss_mb": statistics.median(pss),
        "label_mb": statistics.median(label_bytes) / 1e6,
    }


WORKLOADS = {"hard-bulk": hard_bulk, "fleet-zipf": fleet_zipf, "churn-road": churn_road}
