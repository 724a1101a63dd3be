"""Small graph toolbox: reachability, Tarjan SCCs, breadth-first paths,
0/1 shortest paths.

Everything works on generic hashable nodes with adjacency given as
``dict[node, iterable[node]]``, or, for the path searches, as a function
from a node to its labeled successors.  Kept dependency-free and iterative
so deep graphs cannot hit the recursion limit.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Mapping, Optional, TypeVar

N = TypeVar("N", bound=Hashable)
L = TypeVar("L")


def reachable(adj: Mapping[N, Iterable[N]], starts: Iterable[N]) -> set[N]:
    seen = set(starts)
    stack = list(seen)
    while stack:
        n = stack.pop()
        for m in adj.get(n, ()):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def tarjan_scc(nodes: Iterable[N], adj: Mapping[N, Iterable[N]]) -> list[list[N]]:
    """Strongly connected components in reverse topological order (iterative)."""
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    sccs: list[list[N]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[N, Optional[N], object]] = [(root, None, iter(adj.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, parent, it = work[-1]
            advanced = False
            for child in it:  # type: ignore[union-attr]
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, node, iter(adj.get(child, ()))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
    return sccs


def bfs_path(
    starts: Iterable[N],
    successors: Callable[[N], Iterable[tuple[N, L]]],
    is_goal: Callable[[N], bool],
) -> Optional[tuple[N, list[L]]]:
    """Breadth-first search for the first goal node, in discovery order.

    `successors(n)` yields (node, label) pairs.  Nodes are marked when first
    discovered, so each keeps the label of the edge that found it; the goal
    test runs when a node is dequeued.  Returns the goal with the labels
    along its discovery path from a start, or None when no goal is
    reachable.
    """
    parents: dict[N, Optional[tuple[N, L]]] = {}
    queue: deque[N] = deque()
    for s in starts:
        if s not in parents:
            parents[s] = None
            queue.append(s)
    while queue:
        n = queue.popleft()
        if is_goal(n):
            labels: list[L] = []
            step = parents[n]
            while step is not None:
                prev, label = step
                labels.append(label)
                step = parents[prev]
            labels.reverse()
            return n, labels
        for m, label in successors(n):
            if m not in parents:
                parents[m] = (n, label)
                queue.append(m)
    return None


def zero_one_shortest(
    source: N,
    neighbors: Callable[[N], Iterable[tuple[N, int, L]]],
) -> tuple[dict[N, int], dict[N, tuple[N, L]]]:
    """Single-source shortest distances for edge weights in {0, 1} (deque BFS).

    `neighbors(n)` yields (node, weight, label) triples.  Also returns, for
    every node but the source, the (previous node, label) of the edge that
    last lowered its distance, so shortest paths can be walked back.
    """
    dist: dict[N, int] = {source: 0}
    parent: dict[N, tuple[N, L]] = {}
    dq: deque[N] = deque([source])
    while dq:
        n = dq.popleft()
        d = dist[n]
        for m, w, label in neighbors(n):
            nd = d + w
            if m not in dist or nd < dist[m]:
                dist[m] = nd
                parent[m] = (n, label)
                if w == 0:
                    dq.appendleft(m)
                else:
                    dq.append(m)
    return dist, parent
