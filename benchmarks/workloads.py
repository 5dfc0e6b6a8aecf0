"""Seeded inputs for the four benchmark workloads.

Everything here is standard library only: the inputs are made as text in
paritrace's own formats (automaton files, ``stem;cycle`` lassos, tree
files) without importing the program under test, so a change to the
program cannot change what it is asked to do.

An input set is a JSON-ready dict::

    {"workload": ..., "seed": ..., "automata": [text, ...],
     "trees": [text, ...],                      # tree-cli only
     "ops": [{"aut": i, "state": x, "lasso": "u;v"}, ...]}

One *round* is the whole ``ops`` list; a run repeats whole rounds.
"""

from __future__ import annotations

import random

WORKLOADS = ("campaign", "long-lasso", "deep-nesting", "tree-cli")

# campaign: the automata stream of the acceptance campaign (criteria 4 and 5)
CAMPAIGN_STREAM_SEED = 20240501
CAMPAIGN_AUTOMATA = 500
CAMPAIGN_SHAPES = tuple((u, v) for u in range(3) for v in range(1, 4))

# long-lasso: a fixed base set of (states, positions) shapes, each drawn
# LONG_PER_SHAPE times; every (state, letter) has LONG_DEGREE successors.
# The nested solve is heavy-tailed even here (one op in 42 can cost a third
# of a round), so a fresh draw per seed would move the round time by more
# than any bound; the seed relabels the base set instead (see _relabeled).
LONG_BASE_SEED = 2018
LONG_SHAPES = ((12, 200), (12, 400), (12, 800), (24, 150), (24, 300), (36, 150))
LONG_PER_SHAPE = 7
LONG_DEGREE = 3
# priorities 1..3 (so 2n = 4) drawn with these weights: with uniform
# priorities 1..4 almost every lasso is accepted, with these about half are
LONG_PRIORITY_WEIGHTS = (3, 1, 4)
# lassos above the 4096-position ground-set cap of the position lattice;
# fixed inputs that do not depend on the seed
OVER_CAP_SEED = 4096
OVER_CAP_LENGTHS = (4200, 4800)
OVER_CAP_STATES = 4
OVER_CAP_FAULT = "LatticeTooLargeError"

# deep-nesting: a fixed base set, relabeled by the seed like long-lasso's;
# per-op body evaluations have a coefficient of variation near 2, so a fresh
# draw of 400 ops per seed moved the total by 13 % (interquartile range)
DEEP_BASE_SEED = 1803
DEEP_OPS = 480
DEEP_STATES = 10
DEEP_DENSITY = 0.15
DEEP_TWO_N = (8, 12)

# tree-cli: cold `tree-member` calls
TREE_OPS = 40
TREE_STATES = 10
TREE_NODES = 48
#: how many transitions each (state, symbol) gets, drawn uniformly
TREE_TRANSITIONS = (1, 1, 2)
TREE_ALPHABET = (("f", 2), ("g", 1), ("h", 2), ("c", 0))
TREE_TWO_N = 4


def tail_percentile(n_ops: int) -> int:
    """Highest whole percentile with at least ten of ``n_ops`` samples above it."""
    return int(100 * (n_ops - 10) // n_ops)


# ---------------------------------------------------------------------------
# Text forms
# ---------------------------------------------------------------------------

def word_automaton_text(states, letters, transitions, priorities) -> str:
    lines = [
        "word-parity",
        "alphabet: " + " ".join(letters),
        "states: " + " ".join(states),
        "priorities: " + " ".join(f"{x}:{priorities[x]}" for x in states),
    ]
    lines.extend(f"trans: {x} {a} {y};" for (x, a, y) in transitions)
    return "\n".join(lines) + "\n"


def lasso_text(stem, cycle) -> str:
    return "".join(stem) + ";" + "".join(cycle)


def _random_word_automaton(aut_seed, n_states, n_letters, two_n, density):
    """The draw of ``paritrace.automata.random_word_automaton``, step for step."""
    rng = random.Random(aut_seed)
    states = [f"s{i}" for i in range(n_states)]
    letters = list("abcdefgh"[:n_letters])
    transitions = [
        (x, a, y)
        for x in states
        for a in letters
        for y in states
        if rng.random() < density
    ]
    priorities = {x: rng.randint(1, two_n) for x in states}
    return states, letters, transitions, priorities


def _random_lasso(rng, letters, n_positions, max_stem):
    word = [rng.choice(letters) for _ in range(n_positions)]
    split = rng.randint(0, max_stem)
    return word[:split], word[split:]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def campaign_stream():
    """The 500 (automaton, state) pairs of the acceptance campaign."""
    rng = random.Random(CAMPAIGN_STREAM_SEED)
    out = []
    for _ in range(CAMPAIGN_AUTOMATA):
        n_states = rng.randint(1, 6)
        n_letters = rng.randint(1, 3)
        two_n = 2 * rng.randint(1, 3)
        density = rng.uniform(0.1, 0.6)
        aut = _random_word_automaton(rng.random(), n_states, n_letters, two_n, density)
        out.append((aut, rng.choice(aut[0])))
    return out


def campaign_inputs(seed: int) -> dict:
    """Every automaton of the campaign stream with one seeded lasso of every
    shape |u| in 0..2, |v| in 1..3: 4,500 of the campaign's 105,873
    memberships, stratified so that the seed changes letters, not sizes."""
    rng = random.Random(seed)
    automata = []
    ops = []
    for i, ((states, letters, transitions, priorities), x) in enumerate(campaign_stream()):
        automata.append(word_automaton_text(states, letters, transitions, priorities))
        for stem_len, cycle_len in CAMPAIGN_SHAPES:
            stem = [rng.choice(letters) for _ in range(stem_len)]
            cycle = [rng.choice(letters) for _ in range(cycle_len)]
            ops.append({"aut": i, "state": x, "lasso": lasso_text(stem, cycle)})
    return {"automata": automata, "ops": ops}


def _degree_automaton(rng, n_states, letters, degree):
    """Every (state, letter) has exactly ``degree`` random successors, so the
    size of the restricted system is fixed by the shape alone."""
    states = [f"s{i}" for i in range(n_states)]
    transitions = [
        (x, a, y) for x in states for a in letters for y in rng.sample(states, degree)
    ]
    levels = range(1, len(LONG_PRIORITY_WEIGHTS) + 1)
    priorities = {x: rng.choices(levels, LONG_PRIORITY_WEIGHTS)[0] for x in states}
    return states, letters, transitions, priorities


def _relabeled(rng, base) -> dict:
    """``base`` (a list of (automaton, state, stem, cycle)) under a seeded
    renaming of states, a seeded permutation of the letters, and a seeded
    order of states, transitions and ops.  Every work counter of the engine
    is invariant under these, so all seeds cost the same while the texts
    the program reads differ."""
    automata = []
    ops = []
    for (states, letters, transitions, priorities), x, stem, cycle in base:
        names = dict(zip(states, (f"q{i}" for i in rng.sample(range(len(states)), len(states)))))
        swap = dict(zip(letters, rng.sample(letters, len(letters))))
        trans = [(names[p], swap[a], names[q]) for (p, a, q) in transitions]
        rng.shuffle(trans)
        automata.append(
            word_automaton_text(
                [names[s] for s in rng.sample(states, len(states))],
                letters,
                trans,
                {names[s]: priorities[s] for s in states},
            )
        )
        ops.append(
            {"state": names[x], "lasso": lasso_text([swap[a] for a in stem], [swap[a] for a in cycle])}
        )
    order = rng.sample(range(len(ops)), len(ops))
    return {
        "automata": [automata[i] for i in order],
        "ops": [{**ops[i], "aut": j} for j, i in enumerate(order)],
    }


def long_lasso_base():
    """The seed-independent base set: LONG_PER_SHAPE draws of every shape."""
    rng = random.Random(LONG_BASE_SEED)
    base = []
    for _ in range(LONG_PER_SHAPE):
        for n_states, n_positions in LONG_SHAPES:
            aut = _degree_automaton(rng, n_states, ["a", "b"], LONG_DEGREE)
            stem, cycle = _random_lasso(rng, "ab", n_positions, n_positions // 4)
            base.append((aut, rng.choice(aut[0]), stem, cycle))
    return base


def long_lasso_inputs(seed: int) -> dict:
    """The base set relabeled by the seed, then the over-cap ops unchanged."""
    spec = _relabeled(random.Random(seed), long_lasso_base())
    fixed = random.Random(OVER_CAP_SEED)
    for n_positions in OVER_CAP_LENGTHS:
        aut = _degree_automaton(fixed, OVER_CAP_STATES, ["a", "b"], 2)
        stem, cycle = _random_lasso(fixed, "ab", n_positions, 16)
        spec["ops"].append(
            {
                "aut": len(spec["automata"]),
                "state": aut[0][0],
                "lasso": lasso_text(stem, cycle),
                "known_fault": OVER_CAP_FAULT,
            }
        )
        spec["automata"].append(word_automaton_text(*aut))
    return spec


def deep_nesting_base():
    """The seed-independent base set: (automaton, state, stem, cycle)."""
    rng = random.Random(DEEP_BASE_SEED)
    base = []
    for k in range(DEEP_OPS):
        two_n = DEEP_TWO_N[k % len(DEEP_TWO_N)]
        aut = _random_word_automaton(rng.random(), DEEP_STATES, 2, two_n, DEEP_DENSITY)
        stem, cycle = _random_lasso(rng, "ab", rng.randint(12, 18), 4)
        base.append((aut, rng.choice(aut[0]), stem, cycle))
    return base


def deep_nesting_inputs(seed: int) -> dict:
    return _relabeled(random.Random(seed), deep_nesting_base())


def tree_automaton_text(rng, n_states) -> tuple[str, list[str]]:
    states = [f"s{i}" for i in range(n_states)]
    lines = [
        "tree-parity",
        "ranked-alphabet: " + " ".join(f"{s}/{k}" for s, k in TREE_ALPHABET),
        "states: " + " ".join(states),
        "priorities: " + " ".join(f"{x}:{rng.randint(1, TREE_TWO_N)}" for x in states),
    ]
    for x in states:
        for sym, arity in TREE_ALPHABET:
            for _ in range(rng.choice(TREE_TRANSITIONS)):
                kids = ", ".join(rng.choice(states) for _ in range(arity))
                lines.append(f"trans: {x} -> {sym}({kids});")
    return "\n".join(lines) + "\n", states


def regular_tree_text(rng, n_nodes) -> str:
    """A tree generator with exactly ``n_nodes`` nodes, all reachable.

    Nodes are added along a random spanning tree; child slots left over
    afterwards point back at random nodes, which makes the tree infinite.
    """
    labels: list[str] = []
    kids: list[list[int | None]] = []
    open_slots: list[tuple[int, int]] = []

    def add(node_arity_min):
        choices = [s for s in TREE_ALPHABET if s[1] >= node_arity_min]
        sym, arity = rng.choice(choices)
        labels.append(sym)
        kids.append([None] * arity)
        open_slots.extend((len(labels) - 1, j) for j in range(arity))

    add(1)
    while len(labels) < n_nodes:
        parent, j = open_slots.pop(rng.randrange(len(open_slots)))
        kids[parent][j] = len(labels)
        add(1 if not open_slots else 0)
    for parent, j in open_slots:
        kids[parent][j] = rng.randrange(n_nodes)
    lines = ["tree", "root: n0"]
    for i, (sym, ks) in enumerate(zip(labels, kids)):
        lines.append(f"node n{i} = {sym}({', '.join(f'n{k}' for k in ks)});")
    return "\n".join(lines) + "\n"


def tree_cli_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    automata, trees, ops = [], [], []
    for _ in range(TREE_OPS):
        text, states = tree_automaton_text(rng, TREE_STATES)
        ops.append({"aut": len(automata), "tree": len(trees), "state": rng.choice(states)})
        automata.append(text)
        trees.append(regular_tree_text(rng, TREE_NODES))
    return {"automata": automata, "trees": trees, "ops": ops}


_MAKERS = {
    "campaign": campaign_inputs,
    "long-lasso": long_lasso_inputs,
    "deep-nesting": deep_nesting_inputs,
    "tree-cli": tree_cli_inputs,
}


def make_inputs(workload: str, seed: int) -> dict:
    spec = _MAKERS[workload](seed)
    spec["workload"] = workload
    spec["seed"] = seed
    return spec
