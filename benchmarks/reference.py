"""Reference decider for lasso membership, independent of paritrace.

It reads automata in paritrace's text format with its own small parser and
decides acceptance on the product of automaton and lasso: the lasso
``u v^omega`` from state x is accepted iff some cycle reachable from
(x, position 0) has an even maximum priority.  It shares no code with the
equation engine or with paritrace's graph oracle.
"""

from __future__ import annotations


class WordAutomaton:
    def __init__(self, states, transitions, priorities):
        self.states = tuple(states)
        self.priorities = dict(priorities)
        self.succ: dict[tuple[str, str], list[str]] = {}
        for x, a, y in transitions:
            self.succ.setdefault((x, a), []).append(y)


def parse_word_automaton(text: str) -> WordAutomaton:
    """Read the ``word-parity`` text format (priorities form only)."""
    states: list[str] = []
    priorities: dict[str, int] = {}
    transitions = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line == "word-parity":
            continue
        head, _, payload = line.partition(":")
        if head == "states":
            states.extend(payload.split())
        elif head == "priorities":
            for chunk in payload.split():
                x, _, p = chunk.partition(":")
                priorities[x] = int(p)
        elif head == "trans":
            x, a, y = payload.rstrip(";").split()
            transitions.append((x, a, y))
        elif head != "alphabet":
            raise ValueError(f"unsupported line {line!r}")
    return WordAutomaton(states, transitions, priorities)


def parse_lasso_text(text: str) -> tuple[str, str]:
    stem, _, cycle = text.partition(";")
    return stem, cycle


def _has_cycle_with_max(succ, prio, p) -> bool:
    """Is there a cycle through a priority-``p`` vertex among the vertices
    of priority <= p?  Iterative Tarjan on that subgraph."""
    allowed = {v for v in succ if prio(v) <= p}
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    counter = 0
    for root in allowed:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in allowed:
                    continue
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                cyclic = len(component) > 1 or v in succ[v]
                if cyclic and any(prio(w) == p for w in component):
                    return True
    return False


def accepts(aut: WordAutomaton, x: str, stem: str, cycle: str) -> bool:
    """Does some run of ``aut`` from ``x`` over ``stem cycle^omega`` see an
    even maximum priority infinitely often?  Letters are single characters."""
    word = stem + cycle
    n = len(word)
    loop = len(stem)
    start = (x, 0)
    succ: dict = {}
    todo = [start]
    succ[start] = None
    while todo:
        v = todo.pop()
        y, i = v
        j = i + 1 if i + 1 < n else loop
        targets = [(z, j) for z in aut.succ.get((y, word[i]), ())]
        succ[v] = targets
        for t in targets:
            if t not in succ:
                succ[t] = None
                todo.append(t)

    def prio(v):
        return aut.priorities[v[0]]

    evens = sorted({prio(v) for v in succ if prio(v) % 2 == 0}, reverse=True)
    return any(_has_cycle_with_max(succ, prio, p) for p in evens)
