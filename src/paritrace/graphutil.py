"""Small graph routines shared by the oracle and the input invariants.

Kept dependency-free because these run inside hot differential loops
(hundreds of thousands of tiny graphs per campaign).  Apart from
``reachable_from``, every routine reads ``succ[v]`` for each vertex ``v``
it meets, and ``priority[v]`` where it takes priorities: a dict keyed by
vertex, or a list when the vertices are the numbers ``0 .. m - 1``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Sequence

Vertex = Hashable


def reachable_from(succ: Mapping[Vertex, Sequence[Vertex]], start: Vertex) -> set[Vertex]:
    """Vertices reachable from ``start`` (including it) along ``succ``; a
    vertex missing from ``succ`` has no successors."""
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
    vertices: Iterable[Vertex],
    succ: Mapping[Vertex, Sequence[Vertex]] | Sequence[Sequence[Vertex]],
    priority: Mapping[Vertex, int] | Sequence[int] | None = None,
    bound: int | None = None,
) -> Iterator[set[Vertex]]:
    """Tarjan's algorithm (SIAM J. Comput. 1972), iterative so deep graphs
    cannot blow the stack.

    Yields the components in the order Tarjan completes them (reverse
    topological order), taking roots in the order of ``vertices`` and
    successors in list order.  With ``priority`` and ``bound``, the walk
    stays inside the vertices of priority at most ``bound``: it skips
    every root and successor above it.
    """
    index: dict[Vertex, int] = {}
    low: dict[Vertex, int] = {}
    on_stack: set[Vertex] = set()
    stack: list[Vertex] = []
    bounded = priority is not None

    for root in vertices:
        if root in index or (bounded and priority[root] > bound):
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if bounded and priority[w] > bound:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    scc = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.add(w)
                        if w == v:
                            break
                    yield scc


def cycle_with_max_parity(
    vertices: Iterable[Vertex],
    succ: Mapping[Vertex, Sequence[Vertex]] | Sequence[Sequence[Vertex]],
    priority: Mapping[Vertex, int] | Sequence[int],
    parity: int,
) -> tuple[Vertex, set[Vertex]] | None:
    """Find a cycle whose maximum priority has the given parity (0 or 1).

    ``vertices`` lists every vertex of the graph, successors included.
    A cycle with maximum q exists iff, among vertices of priority <= q,
    some SCC both contains a priority-q vertex and carries a cycle (it has
    more than one vertex or a self-loop).  The candidates q are tried in
    descending order, and within one q the SCCs in Tarjan's completion
    order.  Returns ``(v, scc)``: the first vertex ``v`` of priority q of
    the first such SCC in the order of ``vertices``, and the SCC, which is
    strongly connected through its own vertices.  Returns None when no
    such cycle exists.
    """
    vertices = list(vertices)
    prios = sorted({priority[v] for v in vertices if priority[v] % 2 == parity}, reverse=True)
    for q in prios:
        for scc in strongly_connected_components(vertices, succ, priority, q):
            if len(scc) == 1:
                (v,) = scc
                if priority[v] == q and v in succ[v]:
                    return v, scc
            elif any(priority[v] == q for v in scc):
                return next(v for v in vertices if v in scc and priority[v] == q), scc
    return None


def cycle_through(
    start: Vertex,
    allowed: set[Vertex],
    succ: Mapping[Vertex, Sequence[Vertex]] | Sequence[Sequence[Vertex]],
) -> list[Vertex]:
    """Shortest nonempty cycle ``start -> ... -> start`` inside ``allowed``.

    Returns the cycle as ``[start, v1, ..., vk]`` without the closing start.
    Raises ValueError if none exists.
    """
    # BFS from the successors of start back to start
    parents: dict[Vertex, Vertex | None] = {}
    queue = []
    for w in succ[start]:
        if w in allowed and w not in parents:
            parents[w] = None
            queue.append(w)
        if w == start:
            return [start]
    i = 0
    while i < len(queue):
        v = queue[i]
        i += 1
        for w in succ[v]:
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
    start: Vertex,
    goal: Vertex,
    succ: Mapping[Vertex, Sequence[Vertex]] | Sequence[Sequence[Vertex]],
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
        for w in succ[v]:
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
    vertices: Iterable[Vertex],
    succ: Mapping[Vertex, Sequence[Vertex]] | Sequence[Sequence[Vertex]],
) -> Iterable[list[Vertex]]:
    """All simple cycles, by DFS path extension.  Exponential; test-sized only."""
    vertices = list(vertices)
    order = {v: i for i, v in enumerate(vertices)}
    for root in vertices:
        # only cycles whose minimal vertex (in `order`) is root, to dedupe
        stack = [(root, [root], {root})]
        while stack:
            v, path, on_path = stack.pop()
            for w in succ[v]:
                if w == root:
                    yield list(path)
                elif w not in on_path and order.get(w, -1) > order[root]:
                    stack.append((w, path + [w], on_path | {w}))
