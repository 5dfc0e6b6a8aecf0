"""Small graph routines shared by the oracle and the input invariants.

Kept dependency-free and dict-based because these run inside hot differential
loops (hundreds of thousands of tiny graphs per campaign).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Sequence

Vertex = Hashable


def reachable_from(succ: Mapping[Vertex, Sequence[Vertex]], start: Vertex) -> set[Vertex]:
    """Vertices reachable from ``start`` (including it) along ``succ``."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in succ.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def strongly_connected_components(
    vertices: Iterable[Vertex], succ: Mapping[Vertex, Sequence[Vertex]]
) -> list[set[Vertex]]:
    """Tarjan's algorithm, iterative so deep graphs cannot blow the stack."""
    index: dict[Vertex, int] = {}
    low: dict[Vertex, int] = {}
    on_stack: set[Vertex] = set()
    stack: list[Vertex] = []
    sccs: list[set[Vertex]] = []
    counter = 0

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                scc = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.add(w)
                    if w == v:
                        break
                sccs.append(scc)
    return sccs


def _has_internal_cycle(scc: set[Vertex], succ: Mapping[Vertex, Sequence[Vertex]]) -> bool:
    """An SCC carries a cycle iff it has more than one vertex or a self-loop."""
    if len(scc) > 1:
        return True
    (v,) = scc
    return v in succ.get(v, ())


def cycle_with_max_parity(
    vertices: Iterable[Vertex],
    succ: Mapping[Vertex, Sequence[Vertex]],
    priority: Callable[[Vertex], int],
    parity: int,
) -> tuple[Vertex, set[Vertex], dict[Vertex, list[Vertex]]] | None:
    """Find a cycle whose maximum priority has the given parity (0 or 1).

    A cycle with maximum q exists iff, among vertices of priority <= q,
    some SCC both contains a priority-q vertex and carries a cycle.
    Returns ``(v, scc, sub_succ)``: the first vertex ``v`` of priority q
    of such an SCC in the order of ``vertices``, the SCC, and ``succ``
    restricted to the vertices of priority <= q, in which the SCC is
    strongly connected.  Returns None when no such cycle exists.
    """
    vertices = list(vertices)
    prios = sorted({priority(v) for v in vertices if priority(v) % 2 == parity}, reverse=True)
    for q in prios:
        sub = [v for v in vertices if priority(v) <= q]
        subset = set(sub)
        sub_succ = {v: [w for w in succ.get(v, ()) if w in subset] for v in sub}
        for scc in strongly_connected_components(sub, sub_succ):
            if _has_internal_cycle(scc, sub_succ) and any(priority(v) == q for v in scc):
                v = next(v for v in sub if v in scc and priority(v) == q)
                return v, scc, sub_succ
    return None


def cycle_through(
    start: Vertex, allowed: set[Vertex], succ: Mapping[Vertex, Sequence[Vertex]]
) -> list[Vertex]:
    """Shortest nonempty cycle ``start -> ... -> start`` inside ``allowed``.

    Returns the cycle as ``[start, v1, ..., vk]`` without the closing start.
    Raises ValueError if none exists.
    """
    # BFS from the successors of start back to start
    parents: dict[Vertex, Vertex | None] = {}
    queue = []
    for w in succ.get(start, ()):
        if w in allowed and w not in parents:
            parents[w] = None
            queue.append(w)
        if w == start:
            return [start]
    i = 0
    while i < len(queue):
        v = queue[i]
        i += 1
        for w in succ.get(v, ()):
            if w == start:
                path = [v]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                path.reverse()
                return [start] + path
            if w in allowed and w not in parents:
                parents[w] = v
                queue.append(w)
    raise ValueError(f"no cycle through {start!r}")


def shortest_path(
    start: Vertex, goal: Vertex, succ: Mapping[Vertex, Sequence[Vertex]]
) -> list[Vertex]:
    """Shortest path ``start -> ... -> goal`` (possibly just ``[start]``)."""
    if start == goal:
        return [start]
    parents: dict[Vertex, Vertex] = {}
    queue = [start]
    seen = {start}
    i = 0
    while i < len(queue):
        v = queue[i]
        i += 1
        for w in succ.get(v, ()):
            if w in seen:
                continue
            parents[w] = v
            if w == goal:
                path = [w]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            seen.add(w)
            queue.append(w)
    raise ValueError(f"no path from {start!r} to {goal!r}")


def enumerate_simple_cycles(
    vertices: Iterable[Vertex], succ: Mapping[Vertex, Sequence[Vertex]]
) -> Iterable[list[Vertex]]:
    """All simple cycles, by DFS path extension.  Exponential; test-sized only."""
    vertices = list(vertices)
    order = {v: i for i, v in enumerate(vertices)}
    for root in vertices:
        # only cycles whose minimal vertex (in `order`) is root, to dedupe
        stack = [(root, [root], {root})]
        while stack:
            v, path, on_path = stack.pop()
            for w in succ.get(v, ()):
                if w == root:
                    yield list(path)
                elif w not in on_path and order.get(w, -1) > order[root]:
                    stack.append((w, path + [w], on_path | {w}))
