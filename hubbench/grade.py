"""Grading served answers against the benchmark's own BFS.

The grader never asks the program for a distance: it walks its own
adjacency, so a fault shared by the labels and the program's traversal
code still shows.  An answer is right only if value *and* type match:
a Python ``int`` for a reachable pair, ``float('inf')`` otherwise.
"""

from __future__ import annotations

from collections import deque

import numpy as np

INF = float("inf")


def adjacency(n, edges):
    """Adjacency sets over a copy of an edge list."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs_distance(adj, u, v):
    """Hop distance from ``u`` to ``v``, or INF when unreachable."""
    if u == v:
        return 0
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        dx = dist[x] + 1
        for y in adj[x]:
            if y not in dist:
                if y == v:
                    return dx
                dist[y] = dx
                queue.append(y)
    return INF


def bfs_from(adj, source):
    """Hop distances from ``source`` to every vertex it reaches."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        dx = dist[x] + 1
        for y in adj[x]:
            if y not in dist:
                dist[y] = dx
                queue.append(y)
    return dist


def same_answer(expected, got):
    """Value and type equality (``True`` is not an int distance)."""
    if expected == INF:
        return type(got) is float and got == INF
    return type(got) is int and got == expected


class Tally:
    """What a run attempted and how each failed operation failed."""

    def __init__(self):
        self.pairs = 0
        self.mutations = 0
        self.wrong = 0
        self.dropped = 0
        self.raised = 0
        self.graded = 0
        self.examples = []

    @property
    def attempted(self):
        return self.pairs + self.mutations

    @property
    def failed(self):
        return self.wrong + self.dropped + self.raised

    def check(self, what, expected, got):
        """Grade one answer; remember the first few mismatches."""
        self.graded += 1
        if not same_answer(expected, got):
            self.wrong += 1
            if len(self.examples) < 5:
                self.examples.append(f"{what}: expected {expected!r}, got {got!r}")

    def grade(self, adj, u, v, got):
        """Grade one served ``d(u, v)`` against BFS over ``adj``."""
        self.check(f"d({u},{v})", bfs_distance(adj, u, v), got)

    def grade_source(self, adj, source, us, vs, answers):
        """One BFS from ``source`` grades every served answer among
        ``(us, vs, answers)`` that has ``source`` as an endpoint."""
        dist = bfs_from(adj, source)
        for j in np.flatnonzero((us == source) | (vs == source)).tolist():
            u, v = int(us[j]), int(vs[j])
            self.check(f"d({u},{v})", dist.get(v if u == source else u, INF), answers[j])

    def summary(self):
        return (
            f"attempted pairs={self.pairs} mutations={self.mutations}; "
            f"graded={self.graded} wrong={self.wrong} dropped={self.dropped} "
            f"raised={self.raised}"
        )
