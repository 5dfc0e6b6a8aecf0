"""An independent check of a witness run over a lasso.

It imports nothing from the package, so a fault shared by the product
graph, the graph routines and the engine cannot hide here.  The automaton
is given as a set of (state, letter, state) triples and a priority dict,
the lasso and the run are read through their ``stem`` and ``cycle``.
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
