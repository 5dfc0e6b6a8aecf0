"""An independent check of a witness run over a lasso or a regular tree.

It imports nothing from the package, so a fault shared by the product
graph, the parity-game solver, the graph routines and the engine cannot
hide here.  A word automaton is given as a set of (state, letter, state)
triples, a tree automaton as a set of (state, symbol, targets) triples,
both with a priority dict.  A lasso and its run are read through their
``stem`` and ``cycle``, a tree and its run through their ``nodes`` and
``root``.
"""

from __future__ import annotations


def _normal_form(stem: tuple, cycle: tuple) -> tuple[tuple, tuple]:
    """Shortest period, then shortest stem: equal for two lassos exactly
    when they denote the same infinite word."""
    n = len(cycle)
    period = next(p for p in range(1, n + 1) if n % p == 0 and cycle == cycle[:p] * (n // p))
    cycle = cycle[:period]
    stem = list(stem)
    while stem and stem[-1] == cycle[-1]:
        cycle = (cycle[-1],) + cycle[:-1]
        stem.pop()
    return tuple(stem), cycle


def run_problems(transitions, priorities, x, lasso, run) -> list[str]:
    """What is wrong with ``run`` as an accepting run from ``x`` over
    ``lasso``: a list of findings, empty when the run is lawful.

    The run is a lasso of (letter, state) steps; the state of each step
    reads the step's letter and moves to the next step's state, and the
    last step of the cycle moves back to its first.
    """
    steps = tuple(run.stem) + tuple(run.cycle)
    if not run.cycle:
        return ["the run has an empty cycle"]
    problems = []
    if steps[0][1] != x:
        problems.append(f"the run starts at {steps[0][1]!r}, not at {x!r}")
    loop = len(run.stem)
    for i, (letter, state) in enumerate(steps):
        target = steps[i + 1][1] if i + 1 < len(steps) else steps[loop][1]
        if (state, letter, target) not in transitions:
            what = "the cycle does not close" if i + 1 == len(steps) else f"step {i}"
            problems.append(f"{what}: no transition {state} {letter} {target}")
    letters = tuple(a for a, _ in run.stem), tuple(a for a, _ in run.cycle)
    if _normal_form(*letters) != _normal_form(tuple(lasso.stem), tuple(lasso.cycle)):
        problems.append(f"the run reads {letters}, not the input word")
    top = max(priorities[state] for _, state in run.cycle)
    if top % 2:
        problems.append(f"the cycle's maximum priority {top} is odd")
    return problems


def tree_run_problems(transitions, priorities, x, tree, run) -> list[str]:
    """What is wrong with ``run`` as an accepting run tree from ``x`` over
    ``tree``: a list of findings, empty when the run is lawful.

    A run node is labelled (symbol, state); its state reads its symbol and
    moves to its children's states.  The run must read the input tree, by
    a bisimulation walk from the two roots, and every cycle of the run
    graph reachable from its root must have an even maximum priority.
    """
    problems = []
    (_, state), _ = run.nodes[run.root]
    if state != x:
        problems.append(f"the run starts at {state!r}, not at {x!r}")
    for n, ((symbol, state), kids) in run.nodes.items():
        targets = tuple(run.nodes[k][0][1] for k in kids)
        if (state, symbol, targets) not in transitions:
            problems.append(f"node {n}: no transition {state} -> {symbol}{targets}")
    pairs = {(run.root, tree.root)}
    stack = list(pairs)
    while stack:
        r, t = stack.pop()
        (symbol, _), kids = run.nodes[r]
        label, tree_kids = tree.nodes[t]
        if symbol != label or len(kids) != len(tree_kids):
            problems.append(
                f"run node {r} reads {symbol}/{len(kids)}, tree node {t} is {label}/{len(tree_kids)}"
            )
            continue
        for pair in zip(kids, tree_kids):
            if pair not in pairs:
                pairs.add(pair)
                stack.append(pair)
    reach = _reachable(run, [run.root], lambda n: True)
    for n in reach:
        top = priorities[run.nodes[n][0][1]]
        if top % 2 == 0:
            continue
        # an odd-topped cycle through n exists iff n reaches itself on nodes
        # of priority at most its own
        kids = run.nodes[n][1]
        if n in _reachable(run, kids, lambda m: priorities[run.nodes[m][0][1]] <= top):
            problems.append(f"node {n} lies on a cycle whose maximum priority {top} is odd")
    return problems


def _reachable(run, starts, keep) -> set:
    """The run nodes reachable from ``starts`` through nodes that ``keep``
    admits, the starts included when admitted."""
    seen = set()
    stack = [n for n in starts if keep(n)]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(m for m in run.nodes[n][1] if keep(m))
    return seen
