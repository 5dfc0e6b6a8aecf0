import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from inputs import concat_mu, decomp, unfold_prefix, unfold_step

from paritrace.automata import ParseError
from paritrace.omega_input import (
    DecoratedLassoWord,
    DecoratedRegularTreeRep,
    DecorationError,
    InputError,
    LassoWord,
    RegularTreeRep,
    RunLasso,
    RunTreeRep,
    check_decorated_invariant,
    decorate_run,
    delst,
    flatten_word,
    format_lasso,
    normalize,
    parse_decorated_lasso,
    parse_lasso,
    parse_tree,
    random_lasso,
    serialize_tree,
    tree_reps_bisimilar,
    unroll,
)

D = DecoratedLassoWord
L = LassoWord


def expand(w: LassoWord, n: int):
    """First n letters of the denoted infinite word (the semantic oracle)."""
    out = []
    p = 0
    for _ in range(n):
        out.append(w.letter(p))
        p = w.next_pos(p)
    return tuple(out)


class TestLassoBasics:
    def test_cycle_must_be_nonempty(self):
        with pytest.raises(InputError):
            LassoWord(("a",), ())

    def test_positions(self):
        w = L(("b",), ("a", "b"))
        assert [w.letter(p) for p in range(w.n_positions)] == ["b", "a", "b"]
        assert w.next_pos(2) == 1

    def test_grade_is_first_priority(self):
        assert D((("b", 1),), (("a", 2),)).grade == 1
        assert D((), (("b", 2),)).grade == 2

    def test_decorated_cycle_is_checked_before_priorities(self):
        with pytest.raises(InputError, match="lasso cycle must be nonempty"):
            D((("a", 0),), ())
        with pytest.raises(InputError, match="priority must be a positive int"):
            D((("a", 0),), (("b", 2),))


class TestFlatten:
    def test_pinned_projection(self):
        xi = D((("b", 1),), (("a", 2), ("b", 1)))
        assert flatten_word(xi) == L(("b",), ("a", "b"))

    def test_single_cycle(self):
        assert flatten_word(D((), (("b", 2),))) == L((), ("b",))

    def test_flatten_commutes_with_unroll(self):
        rng = random.Random(0)
        for _ in range(200):
            stem = tuple(
                (rng.choice("ab"), rng.randint(1, 4)) for _ in range(rng.randint(0, 2))
            )
            cycle = tuple(
                (rng.choice("ab"), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))
            )
            xi = D(stem, cycle)
            k = rng.randint(1, 3)
            assert flatten_word(unroll(xi, k)) == unroll(flatten_word(xi), k)


class TestNormalizeUnroll:
    def test_unroll_pinned(self):
        assert unroll(L((), ("a", "b")), 2) == L(("a", "b"), ("a", "b"))

    def test_normalize_pinned(self):
        assert normalize(L(("a", "b"), ("a", "b", "a", "b"))) == L((), ("a", "b"))

    def test_normalize_after_unroll_is_normalize(self):
        rng = random.Random(1)
        for _ in range(500):
            w = random_lasso("abc", 2, 3, rng)
            k = rng.randint(1, 4)
            assert normalize(unroll(w, k)) == normalize(w)

    def test_normalize_preserves_denotation(self):
        rng = random.Random(2)
        for _ in range(300):
            w = random_lasso("ab", 2, 3, rng)
            assert expand(normalize(w), 12) == expand(w, 12)

    @settings(max_examples=200)
    @given(
        st.lists(st.sampled_from("ab"), max_size=3),
        st.lists(st.sampled_from("ab"), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
    )
    def test_normalize_canonical(self, stem, cycle, k, rot):
        # rotating the cycle into the stem and unrolling both denote the
        # same word, so they must normalise identically
        w = L(tuple(stem), tuple(cycle))
        rotated = L(
            w.stem + w.cycle[:rot], w.cycle[rot:] + w.cycle[:rot]
        )
        assert normalize(unroll(rotated, k)) == normalize(w)


class TestConcat:
    def test_pinned(self):
        assert concat_mu(("a", "b"), L((), ("c",))) == L(("a", "b"), ("c",))
        assert concat_mu(("a",), L(("b",), ("c",))) == L(("a", "b"), ("c",))

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            concat_mu((), L((), ("a",)))

    def test_associativity(self):
        rng = random.Random(3)
        for _ in range(100):
            u = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            v = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            w = random_lasso("ab", 2, 3, rng)
            assert normalize(concat_mu(u, concat_mu(v, w))) == normalize(
                concat_mu(u + v, w)
            )


class TestUnfoldStep:
    def test_self_similar_cycle(self):
        xi = D((), (("b", 2),))
        sym, kids = unfold_step(xi)
        assert sym == "b"
        assert kids == ((2, D((), (("b", 2),))),)

    def test_one_step_shift_with_rotation(self):
        xi = D((("b", 1),), (("a", 2), ("b", 1)))
        sym, kids = unfold_step(xi)
        assert sym == "b"
        assert kids == ((2, D((("a", 2),), (("b", 1), ("a", 2)))),)

    def test_tree_children(self):
        xi = DecoratedRegularTreeRep(
            {
                "n0": (("f", 2), ("n0", "n1")),
                "n1": (("c", 1), ()),
            },
            "n0",
        )
        sym, kids = unfold_step(xi)
        assert sym == "f"
        assert [g for g, _ in kids] == [2, 1]
        assert kids[0][1].root == "n0"
        assert kids[1][1].symbol(kids[1][1].root) == "c"

    def test_reassembly_is_identity_on_normalized(self):
        rng = random.Random(4)
        for _ in range(100):
            cycle = tuple(
                (rng.choice("ab"), rng.choice([1, 2])) for _ in range(rng.randint(1, 3))
            )
            xi = normalize(D((), cycle))
            sym, ((grade, child),) = unfold_step(xi)
            rebuilt = D(((sym, xi.grade),) + child.stem, child.cycle)
            assert normalize(rebuilt) == xi


class TestDecomp:
    def test_pinned_lasso(self):
        assert decomp(D((), (("b", 2),))) == D((("b", 1),), (("b", 2),))

    def test_stem_case(self):
        assert decomp(D((("a", 3),), (("b", 2),))) == D((("a", 2),), (("b", 2),))

    def test_grade_one_rejected(self):
        with pytest.raises(ValueError):
            decomp(D((("a", 1),), (("b", 2),)))

    def test_tree_root_shift_keeps_cycles(self):
        xi = DecoratedRegularTreeRep(
            {"n0": (("f", 4), ("n0",))},
            "n0",
        )
        shifted = decomp(xi)
        assert shifted.grade == 3
        assert check_decorated_invariant(shifted) == []
        # the original root, now an inner node, keeps priority 4
        inner = shifted.children(shifted.root)[0]
        assert shifted.priority(inner) == 4

    def test_restore_root_priority_is_identity(self):
        xi = D((("a", 2), ("b", 1)), (("c", 2),))
        down = decomp(xi)
        restored = D(((down.stem[0][0], 2),) + down.stem[1:], down.cycle)
        assert normalize(restored) == normalize(xi)


class TestDecorateRun:
    def test_intro_run_on_ba(self):
        run = RunLasso((), (("b", "x"), ("a", "y")))
        xi = decorate_run(run, {"x": 1, "y": 2})
        assert normalize(xi) == normalize(D((("b", 1),), (("a", 2), ("b", 1))))

    def test_accepting_self_loop(self):
        run = RunLasso((), (("b", "y"),))
        assert decorate_run(run, {"y": 2}) == D((), (("b", 2),))

    def test_nonaccepting_run_rejected(self):
        run = RunLasso((), (("a", "x"),))
        with pytest.raises(DecorationError):
            decorate_run(run, {"x": 1})

    def test_run_tree(self):
        run = RunTreeRep({"r": (("f", "x"), ("r",))}, "r")
        xi = decorate_run(run, {"x": 2})
        assert xi.grade == 2
        run_bad = RunTreeRep({"r": (("f", "x"), ("r",))}, "r")
        with pytest.raises(DecorationError):
            decorate_run(run_bad, {"x": 1})


class TestInvariantChecker:
    def test_even_cycle_ok(self):
        xi = D((("a", 2),), (("b", 1), ("a", 2)))
        assert check_decorated_invariant(xi, 2) == []

    def test_odd_cycle_max(self):
        problems = check_decorated_invariant(D((), (("a", 1),)))
        assert any("odd cycle maximum" in p for p in problems)

    def test_grade_mismatch_reported(self):
        problems = check_decorated_invariant(D((), (("a", 2),)), expected_grade=1)
        assert any("grade" in p for p in problems)

    def test_tree_odd_cycle(self):
        xi = DecoratedRegularTreeRep(
            {"n0": (("f", 3), ("n0",))},
            "n0",
        )
        problems = check_decorated_invariant(xi)
        assert any("odd maximum" in p for p in problems)

    def test_tree_even_cycle_with_odd_offpath_is_fine(self):
        xi = DecoratedRegularTreeRep(
            {
                "n0": (("f", 2), ("n0", "n1")),
                "n1": (("c", 3), ()),
            },
            "n0",
        )
        assert check_decorated_invariant(xi, 2) == []

    def test_tree_invariant_matches_branch_sampling(self):
        # cross-check the cycle criterion against brute-force branch walks
        rng = random.Random(5)
        for trial in range(60):
            n = rng.randint(1, 4)
            names = [f"n{i}" for i in range(n)]
            nodes = {}
            for name in names:
                arity = rng.randint(0, 2)
                nodes[name] = (
                    ("f", rng.randint(1, 4)),
                    tuple(rng.choice(names) for _ in range(arity)),
                )
            try:
                xi = DecoratedRegularTreeRep.pruned(nodes, "n0")
            except InputError:
                continue
            ok = check_decorated_invariant(xi) == []
            # random walks: a node repeated along a walk closes a genuine
            # reachable cycle, so an odd maximum between the repeats is a
            # sound violation witness
            bad_branch = False
            for _ in range(200):
                cur = xi.root
                walk = []
                first_at = {}
                for _ in range(4 * len(xi.nodes) + 8):
                    if cur in first_at:
                        segment = walk[first_at[cur]:]
                        if max(p for _, p in segment) % 2 == 1:
                            bad_branch = True
                        break
                    first_at[cur] = len(walk)
                    walk.append((cur, xi.priority(cur)))
                    kids = xi.children(cur)
                    if not kids:
                        break
                    cur = rng.choice(kids)
                if bad_branch:
                    break
            if bad_branch:
                assert not ok


class TestTreeReps:
    def test_unreachable_nodes_rejected(self):
        with pytest.raises(InputError):
            RegularTreeRep({"a": ("c", ()), "b": ("c", ())}, "a")

    def test_reps_of_different_types_are_never_equal(self):
        nodes = {"n": (("f", 2), ("n",))}
        decorated, run = DecoratedRegularTreeRep(nodes, "n"), RunTreeRep(nodes, "n")
        assert decorated == DecoratedRegularTreeRep(dict(nodes), "n") and run == RunTreeRep(nodes, "n")
        assert decorated != run and run != decorated
        plain = RegularTreeRep({"n": ("f", ("n",))}, "n")
        assert plain == delst(decorated) and plain != decorated and decorated != plain

    def test_pruned_drops_unreachable(self):
        t = RegularTreeRep.pruned({"a": ("c", ()), "b": ("c", ())}, "a")
        assert set(t.nodes) == {"a"}

    def test_delst_projects_labels(self):
        xi = DecoratedRegularTreeRep({"n": (("f", 2), ("n",))}, "n")
        t = delst(xi)
        assert t.label("n") == "f"
        assert t.children("n") == ("n",)

    def test_delst_of_run_symbol_tree(self):
        run = RunTreeRep({"r": (("f", "x"), ("r",))}, "r")
        xi = decorate_run(run, {"x": 2})
        assert tree_reps_bisimilar(delst(xi), RegularTreeRep({"r": ("f", ("r",))}, "r"))

    def test_bisimilarity_folds_duplicates(self):
        one = RegularTreeRep({"a": ("f", ("a",))}, "a")
        two = RegularTreeRep({"a": ("f", ("b",)), "b": ("f", ("a",))}, "a")
        assert tree_reps_bisimilar(one, two)
        three = RegularTreeRep({"a": ("g", ("a",))}, "a")
        assert not tree_reps_bisimilar(one, three)

    def test_unfold_prefix(self):
        t = RegularTreeRep({"a": ("f", ("a", "b")), "b": ("c", ())}, "a")
        assert unfold_prefix(t, 1) == ("f", (("f", "..."), ("c", ())))


class TestTextSyntax:
    def test_lasso_roundtrip(self):
        for text in (";ba", "b;a", "b;ab", ";b"):
            w = parse_lasso(text)
            assert parse_lasso(format_lasso(w)) == w

    def test_lasso_multichar_letters(self):
        w = parse_lasso("aa,bb;cc")
        assert w.stem == ("aa", "bb") and w.cycle == ("cc",)
        assert parse_lasso(format_lasso(w)) == w

    def test_lasso_errors(self):
        with pytest.raises(ParseError):
            parse_lasso("ab")
        with pytest.raises(ParseError):
            parse_lasso("ab;")

    def test_decorated_roundtrip(self):
        xi = parse_decorated_lasso("b:1;a:2,b:1")
        assert xi == D((("b", 1),), (("a", 2), ("b", 1)))
        assert parse_decorated_lasso(format_lasso(xi)) == xi

    def test_decorated_errors(self):
        with pytest.raises(ParseError):
            parse_decorated_lasso("b;a")
        with pytest.raises(ParseError):
            parse_decorated_lasso("b:x;a:2")

    def test_tree_roundtrip(self):
        text = "tree\nroot: n0\nnode n0 = f(n0, n1);\nnode n1 = c();\n"
        t = parse_tree(text)
        assert t.label("n0") == "f"
        assert parse_tree(serialize_tree(t)) == t

    def test_decorated_tree_roundtrip(self):
        text = "decorated-tree\nroot: n0\nnode n0 = f:2(n0, n1);\nnode n1 = c:1();\n"
        xi = parse_tree(text)
        assert isinstance(xi, DecoratedRegularTreeRep)
        assert xi.grade == 2
        assert parse_tree(serialize_tree(xi)) == xi

    def test_tree_errors(self):
        with pytest.raises(ParseError):
            parse_tree("tree\nnode n0 = f();\n")  # missing root
        with pytest.raises(ParseError):
            parse_tree("tree\nroot: n0\nnode n0 = f:2();\n")  # priority on plain


class TestDelstRedecoration:
    def test_projection_idempotent_after_matching_redecoration(self):
        xi = DecoratedRegularTreeRep(
            {"n0": (("f", 2), ("n0", "n1")), "n1": (("c", 1), ())}, "n0"
        )
        plain = delst(xi)
        redecorated = DecoratedRegularTreeRep(
            {
                n: ((plain.label(n), xi.priority(n)), plain.children(n))
                for n in plain.node_ids()
            },
            plain.root,
        )
        assert redecorated == xi
        assert delst(redecorated) == plain
