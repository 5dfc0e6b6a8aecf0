"""The bitmask bodies equal the per-cell reference bodies on arbitrary
assignments, for every input kind the restricted-system builder serves."""

import json
import random
import sys
import threading
from pathlib import Path

import pytest
from cellbody import cell_bodies
from routes import make_phi_body
from test_trace import wide_tree_case

from paritrace import trace
from paritrace.automata import parse
from paritrace.hes import solve
from paritrace.omega_input import parse_lasso
from paritrace.automata import (
    ParityTreeAutomaton,
    RankedAlphabet,
    TreeGenParams,
    WordGenParams,
    random_buchi_automaton,
    random_tree_automaton,
    random_word_automaton,
)
from paritrace.lattice import MU, NU
from paritrace.omega_input import (
    DecoratedLassoWord,
    DecoratedRegularTreeRep,
    RegularTreeRep,
    random_lasso,
    random_regular_tree,
)

KINDS = ("lasso", "decorated-lasso", "buchi", "infinitary", "finite", "tree", "decorated-tree")
#: The kinds whose partition is the automaton's priority classes, which the
#: membership functions compact.
PARITY_KINDS = ("lasso", "decorated-lasso", "tree", "decorated-tree")


def _decorate(letters, rng, two_n):
    return tuple((a, rng.randint(1, two_n)) for a in letters)


def generator_args(kind, seed, rng, blocks=trace._parity_blocks):
    """The builder's arguments for one seeded input of ``kind``, and the
    per-cell reference's.

    The builder gets ``(transitions, labels, preds, root, partition,
    signs)``: ``trace._moves`` groups the transitions over the labels, and
    ``trace._system_from_moves`` builds the system over the generator's own
    predecessor maps ``preds``.  A decorated kind passes the relabelled
    transitions and the ``(symbol, priority)`` labels of ``trace._generator``.
    The reference gets ``(transitions, labels, children, prios, priority)``:
    the original transitions and symbols, child lists built independently
    from ``next_pos`` or ``t.children``, and, for a decorated kind, the
    priorities of positions and states, which it compares per cell.
    ``blocks(aut, decorated)`` gives the partition and signs of the parity
    kinds: the literal ``_parity_blocks`` or the compacted
    ``_compact_blocks`` over all states."""
    if kind in ("tree", "decorated-tree"):
        params = TreeGenParams(
            n_states=rng.randint(2, 5), n_symbols=3, max_arity=2, two_n=4, density=0.7
        )
        aut = random_tree_automaton(params, seed)
        t = random_regular_tree(aut.alphabet, rng.randint(1, 12), rng)
        decorated = kind == "decorated-tree"
        if decorated:
            t = DecoratedRegularTreeRep(
                {n: ((t.label(n), rng.randint(1, 4)), t.children(n)) for n in t.node_ids()},
                t.root,
            )
        transitions, labels, preds, root = trace._generator(aut, t, decorated)
        partition, signs = blocks(aut, decorated)[:2]
        index = {n: i for i, n in enumerate(t.node_ids())}
        children = tuple(tuple(index[c] for c in t.children(n)) for n in t.node_ids())
        args = transitions, labels, preds, root, partition, signs
        return args, _reference_args(aut.transitions, labels, children, aut, decorated)
    params = WordGenParams(n_states=rng.randint(2, 6), n_letters=2, two_n=4, density=0.35)
    if kind == "buchi":
        aut = random_buchi_automaton(params, seed)
    else:
        aut = random_word_automaton(params, seed)
    transitions = trace._word_transitions(aut)
    if kind == "finite":
        word = tuple(rng.choice(aut.alphabet) for _ in range(rng.randint(0, 30)))
        for y in rng.sample(aut.states, rng.randint(0, len(aut.states))):
            transitions.append((y, trace._TICK, ()))
        labels = word + (trace._TICK,)
        children = tuple((p + 1,) for p in range(len(word))) + ((),)
        preds = trace.predecessor_maps(children)
        args = transitions, labels, preds, 0, [aut.states], [MU]
        return args, (transitions, labels, children, None, None)
    w = random_lasso(aut.alphabet, 15, 25, rng)
    children = tuple((w.next_pos(p),) for p in range(w.n_positions))
    if kind in ("lasso", "decorated-lasso"):
        decorated = kind == "decorated-lasso"
        if decorated:
            w = DecoratedLassoWord(_decorate(w.stem, rng, 4), _decorate(w.cycle, rng, 4))
        relabelled, labels, preds, root = trace._generator(aut, w, decorated)
        partition, signs = blocks(aut, decorated)[:2]
        args = relabelled, labels, preds, root, partition, signs
        return args, _reference_args(transitions, labels, children, aut, decorated)
    labels, preds, root = trace._lasso_generator(aut, w)
    if kind == "buchi":
        partition = [
            tuple(s for s in aut.states if s not in aut.accepting),
            tuple(s for s in aut.states if s in aut.accepting),
        ]
        signs = [MU, NU]
    else:
        partition, signs = [aut.states], [NU]
    args = transitions, labels, preds, root, partition, signs
    return args, (transitions, labels, children, None, None)


def _reference_args(transitions, labels, children, aut, decorated):
    """The per-cell reference's arguments: in decorated mode the symbols
    and priorities of the pair labels, and the states' priorities."""
    if not decorated:
        return transitions, labels, children, None, None
    symbols = tuple(sym for sym, _ in labels)
    prios = tuple(q for _, q in labels)
    return transitions, symbols, children, prios, aut.priorities


@pytest.mark.parametrize("kind", ["tree", "decorated-tree", "decorated-lasso"])
def test_masks_equal_cell_by_cell_reference(kind):
    """The generator's predecessor maps and ``trace._moves`` give the masks
    of a position-by-position reading of the child lists and labels.  A
    tree with leaves has positions without a given child slot (a ``None``
    offset), which no mask of that slot holds."""
    rng = random.Random(41)
    slotless = 0
    for seed in range(40):
        (transitions, labels, preds, *_), reference = generator_args(kind, seed, rng)
        original, symbols, children, prios, priority = reference
        assert len(preds) == max(map(len, children))
        for i, (right, left) in enumerate(preds):
            by_offset: dict = {}
            for p, kids in enumerate(children):
                if i < len(kids):
                    by_offset[kids[i] - p] = by_offset.get(kids[i] - p, 0) | (1 << p)
                else:
                    slotless += 1
            assert {d: m for d, m in right} | {-d: m for d, m in left} == by_offset
        moves: dict = {}
        for x, sym, ys in original:
            for p in range(len(labels)):
                if symbols[p] == sym and (prios is None or prios[p] == priority[x]):
                    row = moves.setdefault(x, {})
                    row[ys] = row.get(ys, 0) | (1 << p)
        assert trace._moves(transitions, labels) == moves
    assert (slotless > 0) == kind.endswith("tree")


def random_value(n_positions, rng):
    """A set of positions: empty, full, or random of varying density."""
    full = (1 << n_positions) - 1
    shape = rng.randrange(5)
    if shape == 0:
        return 0
    if shape == 1:
        return full
    value = rng.getrandbits(n_positions)
    if shape == 2:
        return value & rng.getrandbits(n_positions) & rng.getrandbits(n_positions)
    if shape == 3:
        return value | rng.getrandbits(n_positions) | rng.getrandbits(n_positions)
    return value


def check_against_cells(kind, rng, blocks=trace._parity_blocks):
    checked = nonempty = 0
    for seed in range(60):
        args, (ref_transitions, ref_labels, children, prios, priority) = generator_args(
            kind, seed, rng, blocks
        )
        transitions, labels, preds, root, partition, signs = args
        moves = trace._moves(transitions, labels)
        rh = trace.RestrictedHes(
            trace._system_from_moves(moves, len(labels), preds, root, partition, signs)
        )
        reference = cell_bodies(
            ref_transitions, ref_labels, children, partition, prios, priority
        )
        n = len(labels)
        for _ in range(8):
            assign = tuple(
                tuple(random_value(n, rng) for _ in carrier.domain) for carrier in rh.carriers
            )
            for eq, ref in zip(rh.hes.equations, reference):
                got = eq.body(assign)
                assert got == ref(assign), (kind, seed, eq.var)
                checked += 1
                nonempty += any(got)
    assert checked >= 480 and nonempty >= checked // 10


@pytest.mark.parametrize("kind", KINDS)
def test_bitmask_body_equals_cell_body(kind):
    check_against_cells(kind, random.Random(f"body-{kind}"))


@pytest.mark.parametrize("kind", PARITY_KINDS)
def test_compacted_body_equals_cell_body(kind):
    check_against_cells(
        kind,
        random.Random(f"compact-body-{kind}"),
        lambda aut, decorated: trace._compact_blocks(aut, decorated, aut.states),
    )


#: Lassos at the edges of the closed-form map: one position, a one-position
#: cycle after a stem (whose wrap is a right shift by 0), a wrap by 1, and
#: long wraps.
FLAT_LASSOS = {
    "one-position": ";a",
    "cycle-of-one": "ab;c",
    "wrap-by-one": ";ab",
    "wrap-by-119": "c;" + "ab" * 60,
    "wrap-by-209": "abc;" + "cab" * 70,
}


def _edge_trees():
    """Two trees over f/2, g/1 and c/0, and whether the predecessor map of
    their slot 0 is flat: offsets +1 and -2 (one right and one left shift)
    in the first, +1, +2 and -3 in the second."""
    flat = {"n0": ("g", ("n1",)), "n1": ("f", ("n2", "n0")), "n2": ("g", ("n0",))}
    keyed = {
        "n0": ("g", ("n1",)),
        "n1": ("f", ("n3", "n2")),
        "n2": ("c", ()),
        "n3": ("g", ("n0",)),
    }
    return [(RegularTreeRep(flat, "n0"), True), (RegularTreeRep(keyed, "n0"), False)]


def _check_edge_input(aut, inp, decorated, rng, flat):
    """The literal system's bodies on ``inp`` equal the per-cell reference
    on random assignments, and slot 0's map is flat exactly when ``flat``."""
    transitions, labels, preds, root = trace._generator(aut, inp, decorated)
    assert (trace._flat_shift(preds[0]) is not None) == flat
    partition, signs = trace._parity_blocks(aut, decorated)
    moves = trace._moves(transitions, labels)
    rh = trace.RestrictedHes(
        trace._system_from_moves(moves, len(labels), preds, root, partition, signs)
    )
    if isinstance(inp, RegularTreeRep):
        index = {n: i for i, n in enumerate(inp.node_ids())}
        children = tuple(tuple(index[c] for c in inp.children(n)) for n in inp.node_ids())
        plain = aut.transitions
    else:
        children = tuple((inp.next_pos(p),) for p in range(inp.n_positions))
        plain = trace._word_transitions(aut)
    ref_transitions, ref_labels, _, prios, priority = _reference_args(
        plain, labels, children, aut, decorated
    )
    reference = cell_bodies(ref_transitions, ref_labels, children, partition, prios, priority)
    nonempty = 0
    for _ in range(8):
        assign = tuple(
            tuple(random_value(len(labels), rng) for _ in c.domain) for c in rh.carriers
        )
        for eq, ref in zip(rh.hes.equations, reference):
            got = eq.body(assign)
            assert got == ref(assign), (inp, eq.var)
            nonempty += any(got)
    return nonempty


@pytest.mark.parametrize("text", FLAT_LASSOS.values(), ids=FLAT_LASSOS.keys())
@pytest.mark.parametrize("decorated", [False, True], ids=["plain", "decorated"])
def test_flat_lasso_body_equals_cell_body(text, decorated):
    rng = random.Random(f"flat-{text}-{decorated}")
    params = WordGenParams(n_states=4, n_letters=3, two_n=4, density=0.5)
    nonempty = 0
    for seed in range(15):
        aut = random_word_automaton(params, seed)
        w = parse_lasso(text)
        if decorated:
            w = DecoratedLassoWord(_decorate(w.stem, rng, 4), _decorate(w.cycle, rng, 4))
        nonempty += _check_edge_input(aut, w, decorated, rng, True)
    assert nonempty > 0


@pytest.mark.parametrize("index", [0, 1], ids=["flat", "keyed"])
def test_edge_tree_body_equals_cell_body(index):
    rng = random.Random(f"edge-tree-{index}")
    tree, flat = _edge_trees()[index]
    nonempty = 0
    for _ in range(15):
        aut = wide_tree_case(rng)[0]
        nonempty += _check_edge_input(aut, tree, False, rng, flat)
    assert nonempty > 0


def test_flat_shift_normalisation():
    # a right shift by 0 becomes a left shift by 0
    assert trace._flat_shift((((1, 3), (0, 4)), ())) == (1, 3, 0, 4)
    assert trace._flat_shift((((0, 1),), ())) == (0, 0, 0, 1)
    assert trace._flat_shift((((1, 1),), ((2, 4),))) == (1, 1, 2, 4)
    assert trace._flat_shift(((), ())) == (0, 0, 0, 0)
    # more than one shift on a side is not flat, counting the moved one
    assert trace._flat_shift((((1, 1), (0, 2)), ((2, 4),))) is None
    assert trace._flat_shift((((1, 1), (2, 2)), ())) is None
    assert trace._flat_shift(((), ((1, 1), (2, 2)))) is None


#: Lassos for the mask-grouped flat terms: a cycle of one, and lassos whose
#: last position (the wrap) reads a letter that other positions share.
SHARED_LASSOS = {
    "one-position": ";a",
    "cycle-of-one": "ab;a",
    "wrap-by-one": ";ba",
    "stem-and-cycle": "cb;abca",
    "wrap-by-41": "c;" + "ab" * 21,
}


def _shared_masks(moves) -> set:
    """The masks on which two or more single successors of one state
    share a row of ``moves``: each such mask is one grouped flat term."""
    shared = set()
    for row in moves.values():
        masks = [mask for ys, mask in row.items() if len(ys) == 1]
        shared.update([mask for mask in masks if masks.count(mask) > 1])
    return shared


@pytest.mark.parametrize("text", SHARED_LASSOS.values(), ids=SHARED_LASSOS.keys())
@pytest.mark.parametrize("decorated", [False, True], ids=["plain", "decorated"])
def test_shared_mask_lasso_body_equals_cell_body(text, decorated):
    """Dense automata give states two or more successors on the same
    positions, which the fused build unions into one grouped term; some of
    those masks hold the wrap position, the lasso's last one."""
    rng = random.Random(f"shared-{text}-{decorated}")
    params = WordGenParams(n_states=4, n_letters=3, two_n=4, density=0.6)
    grouped = wrapped = nonempty = 0
    for seed in range(15):
        aut = random_word_automaton(params, seed)
        w = parse_lasso(text)
        if decorated:
            w = DecoratedLassoWord(_decorate(w.stem, rng, 4), _decorate(w.cycle, rng, 4))
        transitions, labels = trace._generator(aut, w, decorated)[:2]
        shared = _shared_masks(trace._moves(transitions, labels))
        grouped += bool(shared)
        wrapped += any([(mask >> (len(labels) - 1)) & 1 for mask in shared])
        nonempty += _check_edge_input(aut, w, decorated, rng, True)
    assert grouped >= 5 and wrapped >= 3 and nonempty > 0


def test_shared_mask_finite_word_body_equals_cell_body():
    """The finite-word generator's slot 0 is one right shift, and its
    grouped terms leave out the nullary end position."""
    rng = random.Random("shared-finite")
    params = WordGenParams(n_states=4, n_letters=2, two_n=2, density=0.6)
    grouped = nonempty = 0
    for seed in range(30):
        aut = random_word_automaton(params, seed)
        transitions = trace._word_transitions(aut)
        transitions += [(y, trace._TICK, ()) for y in aut.states[: rng.randint(0, 4)]]
        word = tuple([rng.choice(aut.alphabet) for _ in range(rng.randint(0, 12))])
        labels = word + (trace._TICK,)
        children = tuple([(p + 1,) for p in range(len(word))]) + ((),)
        moves = trace._moves(transitions, labels)
        grouped += bool(_shared_masks(moves))
        preds = trace.predecessor_maps(children)
        rh = trace.RestrictedHes(
            trace._system_from_moves(moves, len(labels), preds, 0, [aut.states], [MU])
        )
        (ref,) = cell_bodies(transitions, labels, children, [aut.states])
        for _ in range(8):
            assign = (tuple([random_value(len(labels), rng) for _ in aut.states]),)
            got = rh.hes.equations[0].body(assign)
            assert got == ref(assign), (seed, word)
            nonempty += any(got)
    assert grouped >= 15 and nonempty > 0


def test_tree_rows_mix_grouped_and_keyed_terms():
    """On the edge tree whose slot 0 is flat, a row holds a grouped term
    (x's two g-successors, and y's), single flat terms and keyed f-terms;
    on the edge tree whose slot 0 is keyed, every term of the row is."""
    alphabet = RankedAlphabet([("f", 2), ("g", 1), ("c", 0)])
    transitions = [
        ("x", "g", ("y",)),
        ("x", "g", ("z",)),
        ("x", "f", ("y", "z")),
        ("x", "f", ("z", "z")),
        ("y", "g", ("x",)),
        ("y", "g", ("z",)),
        ("y", "g", ("y",)),
        ("y", "c", ()),
        ("y", "f", ("x", "y")),
        ("z", "f", ("x", "x")),
        ("z", "g", ("y",)),
        ("z", "c", ()),
    ]
    aut = ParityTreeAutomaton(("x", "y", "z"), alphabet, transitions, {"x": 1, "y": 2, "z": 3})
    rng = random.Random("tree-rows")
    for tree, flat in _edge_trees():
        t_transitions, labels = trace._generator(aut, tree, False)[:2]
        assert _shared_masks(trace._moves(t_transitions, labels))
        assert _check_edge_input(aut, tree, False, rng, flat) > 0


def _lasso_cells(groups, children, assign):
    """``make_phi_body``'s formula cell by cell, for a unary generator."""
    out = []
    for row in groups:
        acc = 0
        for ((k, yi),), mask in row:
            for p, (q,) in enumerate(children):
                if (mask >> p) & 1 and (assign[k][yi] >> q) & 1:
                    acc |= 1 << p
        out.append(acc)
    return tuple(out)


def test_make_phi_body_groups_by_mask_and_checks_slots():
    """``make_phi_body`` goes through the same row builder: slots that
    share a mask (one of them holds the wrap position 4, one a slot twice)
    become grouped terms and equal the cell-by-cell formula, and its three
    slot checks still raise."""
    children = [(1,), (2,), (3,), (4,), (2,)]  # the lasso ab;cab
    preds = trace.predecessor_maps(children)
    m1, m2, m3 = 0b10110, 0b01001, 0b11111
    groups = [
        [(((0, 1),), m1), (((0, 2),), m1), (((0, 0),), m2)],
        [(((0, 1),), m1), (((0, 1),), m2)],
        [(((0, 0),), m3), (((0, 1),), m3), (((0, 2),), m3)],
        [(((0, 2),), m2), (((0, 2),), m2)],
        [],
    ]
    body = make_phi_body(groups, preds, widths=(3,))
    rng = random.Random("phi-groups")
    for _ in range(200):
        assign = (tuple([rng.getrandbits(5) for _ in range(3)]),)
        assert body(assign) == _lasso_cells(groups, children, assign), assign
    for bad, message in (
        ([[(((1, 0),), 1)]], "equation index out of range"),
        ([[(((0, 3),), 1)]], "state index out of range"),
        ([[(((0, 0), (0, 1)), 1)]], "no position has a child slot 1"),
    ):
        with pytest.raises(ValueError, match=message):
            make_phi_body(bad, preds, widths=(3,))


def test_make_phi_body_equals_fused_build():
    """The groups of ``make_phi_body``'s contract, made from the moves,
    give the bodies that ``_system_from_moves`` builds from the moves."""
    rng = random.Random("phi-fused")
    for kind in ("lasso", "decorated-lasso", "tree"):
        for seed in range(10):
            args = generator_args(kind, seed, rng)[0]
            transitions, labels, preds, root, partition, signs = args
            moves = trace._moves(transitions, labels)
            rh = trace.RestrictedHes(
                trace._system_from_moves(moves, len(labels), preds, root, partition, signs)
            )
            slot_of = {y: (k, yi) for k, block in enumerate(partition) for yi, y in enumerate(block)}
            widths = [len(block) for block in partition]
            for eq, block in zip(rh.hes.equations, partition):
                groups = [
                    [
                        (tuple([slot_of[y] for y in ys]), mask)
                        for ys, mask in moves.get(x, {}).items()
                    ]
                    for x in block
                ]
                body = make_phi_body(groups, preds, widths=widths)
                for _ in range(4):
                    assign = tuple(
                        tuple([random_value(len(labels), rng) for _ in c.domain])
                        for c in rh.carriers
                    )
                    assert body(assign) == eq.body(assign), (kind, seed, eq.var)


def _distinct_copy(assign):
    """``assign`` with every value rebuilt as a new ``int`` object (CPython
    shares the objects of -5..256, so only larger values are distinct)."""
    copy = tuple(tuple(int(str(v)) for v in row) for row in assign)
    for row, new_row in zip(assign, copy):
        for v, w in zip(row, new_row):
            assert v == w and (v <= 256 or v is not w)
    return copy


def _mixed(a, b, rng):
    """Each value from ``a`` or ``b``, the same objects: part of the keys
    keep their argument and part change."""
    return tuple(
        tuple(rng.choice(pair) for pair in zip(row_a, row_b)) for row_a, row_b in zip(a, b)
    )


@pytest.mark.parametrize("kind", KINDS)
def test_memoised_body_equals_cell_body_on_repeats(kind):
    """A body's keyed terms (the trees' multi-slot groups) reuse the image
    of a key while its argument is the same object, and its flat terms
    (every lasso group) are recomputed at each call; on sequences that
    return to earlier assignments (A, B, A), mix them and repeat equal
    values in new objects, the body still equals the memo-free
    reference."""
    rng = random.Random(f"memo-{kind}")
    checked = distinct = widest = 0
    for seed in range(20):
        args, (ref_transitions, ref_labels, children, prios, priority) = generator_args(
            kind, seed, rng
        )
        transitions, labels, preds, root, partition, signs = args
        moves = trace._moves(transitions, labels)
        rh = trace.RestrictedHes(
            trace._system_from_moves(moves, len(labels), preds, root, partition, signs)
        )
        reference = cell_bodies(
            ref_transitions, ref_labels, children, partition, prios, priority
        )
        n = len(labels)
        widest = max(widest, n)
        a, b = (
            tuple(tuple(random_value(n, rng) for _ in c.domain) for c in rh.carriers)
            for _ in range(2)
        )
        pool = [a, b, _mixed(a, b, rng), _mixed(b, a, rng), _distinct_copy(a), _distinct_copy(b)]
        tail = pool * 3
        rng.shuffle(tail)
        for assign in [a, b, a] + tail:
            for eq, ref in zip(rh.hes.equations, reference):
                assert eq.body(assign) == ref(assign), (kind, seed, eq.var)
                checked += 1
        distinct += any(v > 256 for row in a for v in row)
    # a value above 256 needs more than 8 positions, which the trees lack
    assert checked >= 20 * 21 and (distinct >= 5 or widest <= 8)


DEEP_SOLVE_COUNTERS = Path(__file__).parent / "data" / "deep_solve_counters.json"


def test_two_threads_share_one_system():
    """Two threads solving the same systems share their bodies: the
    lassos' flat terms, and the memos of the keyed terms of the four widest
    of twelve wide trees.  Each solve still equals a single-threaded solve
    of a fresh build, and the lassos' counters are the recorded ones."""
    cases = json.loads(DEEP_SOLVE_COUNTERS.read_text(encoding="utf-8"))["cases"]
    cases = sorted(cases, key=lambda c: -c["expected"]["warm"]["body_evals"])[:4]
    inputs = [(parse(c["automaton"]), parse_lasso(c["input"])) for c in cases]
    rng = random.Random("threads")
    trees = [wide_tree_case(rng) for _ in range(12)]
    trees.sort(key=lambda case: -len(case[2].node_ids()) * len(case[0].states))
    inputs += [(aut, t) for aut, _, t in trees[:4]]
    expected = [solve(trace.build_restricted_hes(aut, w).hes) for aut, w in inputs]
    shared = [trace.build_restricted_hes(aut, w).hes for aut, w in inputs]
    results = [[], []]
    errors = []

    def work(out):
        try:
            for _ in range(3):
                out.append([solve(hes) for hes in shared])
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-evaluation
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    for out in results:
        assert out == [expected] * 3
    # and the single-threaded solves are the recorded ones
    for case, sol in zip(cases, expected[:4]):
        warm = case["expected"]["warm"]
        assert (list(sol.iterations), sol.body_evals) == (warm["iterations"], warm["body_evals"])
