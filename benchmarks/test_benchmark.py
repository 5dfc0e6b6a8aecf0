"""Tests of the benchmark's own parts: the reference decider and the input
generators.  Run with ``python -m pytest benchmarks`` from the repository
root (the generator tests need ``src`` on ``PYTHONPATH``)."""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import workloads  # noqa: E402

INTRO = """word-parity
alphabet: a b
states: x y
priorities: x:1 y:2
trans: x a x;
trans: x b y;
trans: y a x;
trans: y b y;
"""

APPENDIX = """word-parity
alphabet: a b c
states: x y z
priorities: x:1 y:2 z:3
trans: x a x;
trans: x b y;
trans: y a x;
trans: y b y;
trans: y c z;
trans: z b y;
trans: z c z;
"""


@pytest.mark.parametrize(
    "text, lasso, expected",
    [
        # infinitely many b: the run keeps returning to y (priority 2)
        (INTRO, ";ba", True),
        # after the first b only a follows: the run stays in x (priority 1)
        (INTRO, "b;a", False),
        # b forever from x: x, then y forever, maximum 2
        (APPENDIX, ";b", True),
        # (bc)^omega: y and z alternate, maximum 3 is odd
        (APPENDIX, ";bc", False),
    ],
)
def test_reference_hand_worked(text, lasso, expected):
    aut = reference.parse_word_automaton(text)
    stem, cycle = reference.parse_lasso_text(lasso)
    assert reference.accepts(aut, "x", stem, cycle) is expected


def test_reference_dead_end_rejects():
    aut = reference.parse_word_automaton(INTRO.replace("trans: y b y;\n", ""))
    # x -b-> y has no b-successor, so b^omega has no run at all
    assert reference.accepts(aut, "x", "", "b") is False


def test_tail_percentile_leaves_ten_samples_above():
    for n in (40, 42, 480, 4500):
        q = workloads.tail_percentile(n)
        assert n - -(-q * n // 100) >= 10
        assert n - -(-(q + 1) * n // 100) < 10 or q == 99


def test_campaign_stream_is_the_acceptance_campaign():
    automata = pytest.importorskip("paritrace.automata")
    rng = random.Random(workloads.CAMPAIGN_STREAM_SEED)
    for (aut, x) in workloads.campaign_stream():
        params = automata.WordGenParams(
            n_states=rng.randint(1, 6),
            n_letters=rng.randint(1, 3),
            two_n=2 * rng.randint(1, 3),
            density=rng.uniform(0.1, 0.6),
        )
        want = automata.random_word_automaton(params, rng.random())
        assert automata.parse(workloads.word_automaton_text(*aut)) == want
        assert x == rng.choice(want.states)


@pytest.mark.parametrize("workload", ["deep-nesting", "long-lasso"])
def test_relabeled_seeds_do_the_same_work(workload):
    automata = pytest.importorskip("paritrace.automata")
    from paritrace.omega_input import parse_lasso
    from paritrace.trace import parity_trace_membership

    work = []
    for seed in (0, 1):
        spec = workloads.make_inputs(workload, seed)
        out = []
        for op in spec["ops"]:
            if op.get("known_fault"):
                continue
            aut = automata.parse(spec["automata"][op["aut"]])
            v = parity_trace_membership(aut, op["state"], parse_lasso(op["lasso"]))
            out.append((v.value, v.stats.body_evals, v.stats.iterations))
        work.append(sorted(out))
    assert work[0] == work[1]


def test_tree_generator_node_count():
    omega_input = pytest.importorskip("paritrace.omega_input")
    rng = random.Random(5)
    for _ in range(20):
        t = omega_input.parse_tree(workloads.regular_tree_text(rng, workloads.TREE_NODES))
        assert len(t.node_ids()) == workloads.TREE_NODES
