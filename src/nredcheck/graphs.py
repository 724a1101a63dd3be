"""Small graph toolbox: reachability, Tarjan SCCs, breadth-first and 0/1
shortest paths, compressed sparse rows.

Reachability and breadth-first paths take the graph as a function from a
node to its successors (labeled successors for paths), so they run on
dicts of hashable nodes and on the int-numbered templates of `model` alike.
Tarjan SCCs and 0/1 shortest paths, which only whole-template passes need,
run on ints 0..n-1 with the adjacency given as compressed sparse rows
(`csr`): node u's successors are `targets[offsets[u]:offsets[u + 1]]`.
Kept dependency-free and iterative so deep graphs cannot hit the recursion
limit.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import accumulate
from typing import Callable, Hashable, Iterable, Optional, Sequence, TypeVar

N = TypeVar("N", bound=Hashable)
L = TypeVar("L")


def csr(n: int, keys: Sequence[int]) -> tuple[array, array]:
    """Compressed sparse rows grouping the items 0..len(keys)-1 by their key
    in range(n): row r is `items[offsets[r]:offsets[r + 1]]`, in increasing
    item order."""
    counts = [0] * n
    for k in keys:
        counts[k] += 1
    offsets = array("i", accumulate(counts, initial=0))
    items = array("i", sorted(range(len(keys)), key=keys.__getitem__))
    return offsets, items


def reachable(successors: Callable[[N], Iterable[N]], starts: Iterable[N]) -> set[N]:
    seen = set(starts)
    stack = list(seen)
    while stack:
        for m in successors(stack.pop()):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def tarjan_scc(roots: Iterable[int], offsets: Sequence[int], targets: Sequence[int]) -> list[list[int]]:
    """Strongly connected components of the int graph whose node u has the
    successors `targets[offsets[u]:offsets[u + 1]]`, searched from `roots`
    in order and children in row order; components come in reverse
    topological order (iterative)."""
    n = len(offsets) - 1
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        path = [root]  # the search path, with the next row slot of each node
        slots = [offsets[root]]
        while path:
            node = path[-1]
            slot, end = slots[-1], offsets[node + 1]
            while slot < end:
                child = targets[slot]
                slot += 1
                if index[child] < 0:
                    break
                if on_stack[child] and index[child] < low[node]:
                    low[node] = index[child]
            else:
                path.pop()
                slots.pop()
                if path and low[node] < low[path[-1]]:
                    low[path[-1]] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp.append(w)
                        if w == node:
                            break
                    sccs.append(comp)
                continue
            slots[-1] = slot
            index[child] = low[child] = counter
            counter += 1
            stack.append(child)
            on_stack[child] = 1
            path.append(child)
            slots.append(offsets[child])
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
    source: int, offsets: Sequence[int], targets: Sequence[int], weights: Sequence[int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Single-source shortest distances for edge weights in {0, 1} (deque
    BFS) on the int graph whose node u has the out-slots
    `offsets[u]..offsets[u + 1] - 1`, slot j leading to `targets[j]` at
    weight `weights[j]`.

    Also returns, for every node but the source, the slot that last lowered
    its distance, so shortest paths can be walked back.
    """
    dist: dict[int, int] = {source: 0}
    parent: dict[int, int] = {}
    dq: deque[int] = deque([source])
    while dq:
        n = dq.popleft()
        d = dist[n]
        for j in range(offsets[n], offsets[n + 1]):
            m = targets[j]
            w = weights[j]
            nd = d + w
            if m not in dist or nd < dist[m]:
                dist[m] = nd
                parent[m] = j
                if w == 0:
                    dq.appendleft(m)
                else:
                    dq.append(m)
    return dist, parent
