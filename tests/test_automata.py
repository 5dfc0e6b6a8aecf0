import random

import pytest

from paritrace.automata import (
    AutomatonError,
    BuchiWordAutomaton,
    DetGenParams,
    DeterministicExceptionAutomaton,
    ParityTreeAutomaton,
    ParityWordAutomaton,
    ParseError,
    RankedAlphabet,
    TreeGenParams,
    WordGenParams,
    buchi_to_parity,
    parse,
    random_buchi_automaton,
    random_det_exception_automaton,
    random_tree_automaton,
    random_word_automaton,
    serialize,
)
from paritrace.omega_input import random_regular_tree
from paritrace.trace import tree_language_membership

def rebuilt(aut):
    """A fresh instance of ``aut``'s kind from its fields: the constructor
    re-runs every structural check."""
    if isinstance(aut, ParityWordAutomaton):
        return ParityWordAutomaton(aut.states, aut.alphabet, aut.transitions, aut.priorities, aut.final)
    if isinstance(aut, BuchiWordAutomaton):
        return BuchiWordAutomaton(aut.states, aut.alphabet, aut.transitions, aut.accepting, aut.final)
    if isinstance(aut, ParityTreeAutomaton):
        return ParityTreeAutomaton(aut.states, aut.alphabet, aut.transitions, aut.priorities)
    return DeterministicExceptionAutomaton(
        aut.states, aut.alphabet, aut.delta, aut.priorities, "word" if aut.word_kind else "tree"
    )


INTRO_TEXT = """
# the two-state automaton from the worked example
word-parity
alphabet: a b
states: x y
priorities: x:1 y:2
trans: x a x;
trans: x b y;
trans: y a x;
trans: y b y;
"""

APPENDIX_TEXT = """
word-parity
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

TREE_TEXT = """
tree-parity
ranked-alphabet: f/2 g/1 c/0
states: x y
priorities: x:2 y:1
trans: x -> f(x, y);
trans: y -> g(y);
trans: x -> c();
"""


class TestParsing:
    def test_intro_automaton(self):
        aut = parse(INTRO_TEXT)
        assert isinstance(aut, ParityWordAutomaton)
        assert len(aut.states) == 2
        assert len(aut.transitions) == 4
        assert aut.priorities == {"x": 1, "y": 2}
        assert aut.two_n == 2

    def test_appendix_automaton(self):
        aut = parse(APPENDIX_TEXT)
        assert len(aut.states) == 3
        assert len(aut.transitions) == 7
        # priorities reach 3, so the induced bound rounds up to 4
        assert aut.two_n == 4

    def test_degenerate_deadlock_automaton(self):
        aut = parse("word-parity\nalphabet: a\nstates: x\npriorities: x:1\n")
        assert aut.transitions == ()
        assert rebuilt(aut) == aut

    def test_accepting_shorthand_gives_buchi(self):
        text = INTRO_TEXT.replace("priorities: x:1 y:2", "accepting: y")
        aut = parse(text)
        assert isinstance(aut, BuchiWordAutomaton)
        assert aut.accepting == {"y"}
        parity = buchi_to_parity(aut)
        assert parity.priorities == {"x": 1, "y": 2}

    def test_tree_automaton(self):
        aut = parse(TREE_TEXT)
        assert isinstance(aut, ParityTreeAutomaton)
        assert aut.alphabet.arity("f") == 2
        assert ("x", "f", ("x", "y")) in aut.transitions

    def test_det_exc_word(self):
        text = "word-det-exc\nalphabet: a\nstates: x y\npriorities: x:2 y:1\ntrans: x a y;\n"
        aut = parse(text)
        assert isinstance(aut, DeterministicExceptionAutomaton)
        assert aut.word_kind and aut.delta == {"x": ("a", ("y",))}

    def test_det_exc_rejects_second_transition(self):
        text = (
            "word-det-exc\nalphabet: a\nstates: x\npriorities: x:2\n"
            "trans: x a x;\ntrans: x a x;\n"
        )
        aut = parse(text)  # duplicate line collapses to the same entry
        assert aut.delta == {"x": ("a", ("x",))}
        bad = text.replace("trans: x a x;\ntrans: x a x;", "trans: x a x;\ntrans: x b x;")
        with pytest.raises(ParseError):
            parse(bad.replace("alphabet: a", "alphabet: a b"))

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse("word-parity\nalphabet: a\nstates: x\npriorities: x:oops\n")
        assert "line 4" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse("alphabet: a\n")

    def test_comments_and_blank_lines_ignored(self):
        assert parse(INTRO_TEXT) == parse(INTRO_TEXT + "\n# trailing comment\n")


class TestValidation:
    def test_priority_out_of_range(self):
        with pytest.raises(AutomatonError, match=r"priority out of \[1,2n\]"):
            ParityWordAutomaton(("x",), ("a",), [], {"x": 0})

    def test_tree_arity_mismatch(self):
        alph = RankedAlphabet([("f", 2)])
        with pytest.raises(AutomatonError, match="arity"):
            ParityTreeAutomaton(("x",), alph, [("x", "f", ("x",))], {"x": 1})

    def test_undeclared_references(self):
        with pytest.raises(AutomatonError):
            ParityWordAutomaton(("x",), ("a",), [("x", "a", "ghost")], {"x": 1})
        with pytest.raises(AutomatonError):
            ParityWordAutomaton(("x",), ("a",), [("x", "zz", "x")], {"x": 1})

    def test_validate_reports_mutated_instance(self):
        aut = parse(INTRO_TEXT)
        aut.priorities["x"] = 0  # sidestep the constructor
        with pytest.raises(AutomatonError, match=r"priority out of \[1,2n\]"):
            rebuilt(aut)


class TestSerialization:
    @pytest.mark.parametrize("text", [INTRO_TEXT, APPENDIX_TEXT, TREE_TEXT])
    def test_parse_serialize_roundtrip(self, text):
        aut = parse(text)
        assert parse(serialize(aut)) == aut

    def test_serialize_parse_is_normalising_fixpoint(self):
        aut = parse(INTRO_TEXT)
        once = serialize(aut)
        assert serialize(parse(once)) == once

    @pytest.mark.parametrize("text", [INTRO_TEXT, APPENDIX_TEXT, TREE_TEXT])
    def test_json_mirror(self, text):
        aut = parse(text)
        doc = serialize(aut, as_json=True)
        assert doc.lstrip().startswith("{")
        assert parse(doc) == aut

    def test_json_mirror_buchi(self):
        aut = BuchiWordAutomaton(("x", "y"), ("a",), [("x", "a", "y")], {"y"})
        via_json = parse(serialize(aut, as_json=True))
        assert isinstance(via_json, BuchiWordAutomaton)
        assert via_json == aut

    def test_det_exc_roundtrip(self):
        alph = RankedAlphabet([("f", 2), ("c", 0)])
        aut = DeterministicExceptionAutomaton(
            ("x", "y"), alph, {"x": ("f", ("x", "y")), "y": ("c", ())}, {"x": 2, "y": 1}
        )
        assert parse(serialize(aut)).delta == aut.delta
        assert parse(serialize(aut, as_json=True)).delta == aut.delta


class TestBuchiToParity:
    def test_intro_encoding(self):
        aut = BuchiWordAutomaton(
            ("x", "y"),
            ("a", "b"),
            [("x", "a", "x"), ("x", "b", "y"), ("y", "a", "x"), ("y", "b", "y")],
            {"y"},
        )
        parity = buchi_to_parity(aut)
        assert parity.priorities == {"x": 1, "y": 2}

    def test_all_accepting_constant_two(self):
        aut = BuchiWordAutomaton(("x",), ("a",), [("x", "a", "x")], {"x"})
        assert buchi_to_parity(aut).priorities == {"x": 2}


class TestSharedCore:
    """Priorities, shifting and equality, shared by every parity automaton."""

    def test_tree_shift_keeps_membership(self):
        rng = random.Random(7)
        params = TreeGenParams(n_states=4, n_symbols=3, max_arity=2, two_n=4, density=0.6)
        seen = set()
        for seed in range(25):
            aut = random_tree_automaton(params, seed)
            before = dict(aut.priorities)
            up = aut.shifted(2)
            assert aut.priorities == before
            assert up.priorities == {x: p + 2 for x, p in before.items()} and up.two_n == aut.two_n + 2
            assert up.transitions == aut.transitions and up.priority_class(1) == ()
            for _ in range(3):
                tree = random_regular_tree(aut.alphabet, rng.randint(1, 6), rng)
                x = rng.choice(aut.states)
                verdict = tree_language_membership(aut, x, tree).value
                assert tree_language_membership(up, x, tree).value == verdict
                seen.add(verdict)
        assert seen == {False, True}

    @pytest.mark.parametrize("delta", [1, -3])
    def test_odd_shift_rejected(self, delta):
        aut = parse(TREE_TEXT)
        with pytest.raises(ValueError, match="even"):
            aut.shifted(delta)

    def test_shift_below_one_rejected(self):
        with pytest.raises(AutomatonError, match=r"priority out of \[1,2n\]"):
            parse(INTRO_TEXT).shifted(-2)

    def test_kinds_are_never_equal(self):
        unary = RankedAlphabet([("f", 1)])
        word = ParityWordAutomaton(("x",), ("f",), [], {"x": 2})
        tree = ParityTreeAutomaton(("x",), unary, [], {"x": 2})
        det_word = DeterministicExceptionAutomaton(("x",), unary, {}, {"x": 2}, "word")
        det_tree = DeterministicExceptionAutomaton(("x",), unary, {}, {"x": 2}, "tree")
        buchi = BuchiWordAutomaton(("x",), ("f",), [], {"x"})
        auts = [word, tree, det_word, det_tree, buchi]
        for i, a in enumerate(auts):
            for j, b in enumerate(auts):
                assert (a == b) == (i == j), (a.kind, b.kind)
        assert len(set(auts)) == 5
        assert buchi != buchi_to_parity(buchi)

    def test_equal_automata_hash_equally(self):
        for text in (INTRO_TEXT, APPENDIX_TEXT, TREE_TEXT):
            a, b = parse(text), parse(text)
            assert a is not b and a == b and hash(a) == hash(b)
        det = random_det_exception_automaton(DetGenParams(), 3)
        twin = DeterministicExceptionAutomaton(det.states[::-1], det.alphabet, det.delta, det.priorities)
        assert det == twin and hash(det) == hash(twin)

    def test_buchi_equality_reads_every_field(self):
        aut = BuchiWordAutomaton(("x", "y"), ("a", "b"), [("x", "a", "y")], {"y"}, {"x"})
        twin = BuchiWordAutomaton(("y", "x"), ("b", "a"), [("x", "a", "y")], {"y"}, {"x"})
        assert aut == twin and hash(aut) == hash(twin)
        others = [
            BuchiWordAutomaton(("x", "y", "z"), ("a", "b"), [("x", "a", "y")], {"y"}, {"x"}),
            BuchiWordAutomaton(("x", "y"), ("a",), [("x", "a", "y")], {"y"}, {"x"}),
            BuchiWordAutomaton(("x", "y"), ("a", "b"), [("x", "b", "y")], {"y"}, {"x"}),
            BuchiWordAutomaton(("x", "y"), ("a", "b"), [("x", "a", "y")], {"x"}, {"x"}),
            BuchiWordAutomaton(("x", "y"), ("a", "b"), [("x", "a", "y")], {"y"}),
        ]
        for other in others:
            assert other != aut

    @pytest.mark.parametrize("kind", ["word-parity", "word-buchi", "tree-parity"])
    def test_nondeterministic_kinds_roundtrip_with_equality(self, kind):
        make = {
            "word-parity": lambda s: random_word_automaton(WordGenParams(), s),
            "word-buchi": lambda s: random_buchi_automaton(WordGenParams(), s),
            "tree-parity": lambda s: random_tree_automaton(TreeGenParams(), s),
        }[kind]
        for seed in range(10):
            aut = make(seed)
            assert aut.kind == kind
            assert parse(serialize(aut)) == aut
            assert parse(serialize(aut, as_json=True)) == aut

    @pytest.mark.parametrize("word", [False, True])
    def test_det_exc_roundtrips_with_equality(self, word):
        for seed in range(10):
            aut = random_det_exception_automaton(DetGenParams(word=word), seed)
            assert parse(serialize(aut)) == aut
            assert parse(serialize(aut, as_json=True)) == aut
            assert aut.shifted(2) != aut


class TestGenerators:
    def test_seed_determinism(self):
        p = WordGenParams(n_states=4, n_letters=2, two_n=4, density=0.5)
        assert random_word_automaton(p, 123) == random_word_automaton(p, 123)
        t = TreeGenParams()
        assert random_tree_automaton(t, 9) == random_tree_automaton(t, 9)

    def test_density_zero_no_transitions(self):
        aut = random_word_automaton(WordGenParams(density=0.0), 5)
        assert aut.transitions == ()

    def test_generated_instances_validate(self):
        for seed in range(30):
            aut = random_word_automaton(
                WordGenParams(n_states=4, n_letters=2, two_n=4, density=0.5), seed
            )
            assert rebuilt(aut) == aut
            taut = random_tree_automaton(TreeGenParams(), seed)
            assert rebuilt(taut) == taut
            daut = random_det_exception_automaton(DetGenParams(), seed)
            assert rebuilt(daut) == daut

    def test_letters_above_cap_rejected(self):
        assert len(random_word_automaton(WordGenParams(n_letters=8), 0).alphabet) == 8
        with pytest.raises(ValueError, match="at most 8 letters"):
            random_word_automaton(WordGenParams(n_letters=9), 0)
        with pytest.raises(ValueError, match="at most 8 letters"):
            random_buchi_automaton(WordGenParams(n_letters=20), 0)
        with pytest.raises(ValueError, match="at most 8 letters"):
            random_det_exception_automaton(DetGenParams(n_symbols=9, word=True), 0)
        # a tree-shaped alphabet has no such cap
        tree = random_det_exception_automaton(DetGenParams(n_symbols=12), 0)
        assert len(tree.alphabet.symbols) == 12

    def test_bounds_respected(self):
        p = WordGenParams(n_states=3, n_letters=2, two_n=4, density=1.0)
        aut = random_word_automaton(p, 0)
        assert len(aut.states) == 3
        assert len(aut.alphabet) == 2
        assert all(1 <= v <= 4 for v in aut.priorities.values())
        assert len(aut.transitions) == 3 * 2 * 3
