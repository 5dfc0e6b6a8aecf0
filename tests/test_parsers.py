"""Arbitrary text and JSON fed to the input parsers raises only their
documented error types: ``ParseError`` from automata and trees, and
``ParseError`` or ``InputError`` from lassos."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritrace.automata import ParseError, parse, serialize
from paritrace.harness import appendix_automaton, intro_automaton
from paritrace.omega_input import InputError, parse_decorated_lasso, parse_lasso, parse_tree

AUT_TOKENS = [
    "word-parity", "tree-parity", "word-det-exc", "tree-det-exc", "alphabet:",
    "ranked-alphabet:", "states:", "priorities:", "accepting:", "final:", "trans:",
    "x", "y", "a", "b", "f/2", "c/0", "f/x", "x:1", "y:2", "x:0", "x a y;", "x -> f(x, y);",
    "x -> c();", "->", "(", ")", ";", ":", "/", "#",
]
TREE_TOKENS = [
    "tree", "decorated-tree", "root:", "root: n", "node", "n", "m", "=", "n = f(n, m);",
    "m = c();", "n = f:2(n);", "m = a:0();", "(", ")", ";", ":", "#",
]


def token_lines(tokens):
    line = st.lists(st.sampled_from(tokens), max_size=5).map(" ".join)
    return st.lists(line | st.text(max_size=12), max_size=8).map("\n".join)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(["x", "y", "a", "f"]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)

SAMPLE_DOCS = [
    json.loads(serialize(aut, as_json=True)) for aut in (intro_automaton(), appendix_automaton())
] + [
    json.loads(serialize(parse(text), as_json=True))
    for text in (
        "tree-parity\nranked-alphabet: f/2 c/0\nstates: x\npriorities: x:2\n"
        "trans: x -> f(x, x);\ntrans: x -> c();\n",
        "tree-det-exc\nranked-alphabet: f/1\nstates: x\npriorities: x:2\ntrans: x -> f(x);\n",
    )
]


@st.composite
def mutated_json_automata(draw):
    """A serialised sample automaton with one field replaced or deleted."""
    doc = dict(draw(st.sampled_from(SAMPLE_DOCS)))
    key = draw(st.sampled_from(sorted(doc) + ["ranked_alphabet", "delta", "accepting"]))
    if draw(st.booleans()):
        doc.pop(key, None)
    else:
        doc[key] = draw(JSON_VALUES)
    return json.dumps(doc)


AUTOMATON_TEXTS = (
    st.text(max_size=40)
    | token_lines(AUT_TOKENS)
    | JSON_VALUES.map(json.dumps)
    | mutated_json_automata()
)


def raises_only(parser, text, errors):
    try:
        parser(text)
    except errors:
        pass


class TestParsersRaiseDocumentedErrors:
    @settings(max_examples=300, deadline=None)
    @given(AUTOMATON_TEXTS)
    def test_automaton_parser(self, text):
        raises_only(parse, text, ParseError)

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=40) | token_lines(TREE_TOKENS))
    def test_tree_parser(self, text):
        raises_only(parse_tree, text, ParseError)

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="ab,;: 0123-\n", max_size=20) | st.text(max_size=20))
    def test_lasso_parsers(self, text):
        raises_only(parse_lasso, text, (ParseError, InputError))
        raises_only(parse_decorated_lasso, text, (ParseError, InputError))


#: A line that the header's kind does not read, with its 1-based number.
FOREIGN_LINES = [
    ("word-parity\nalphabet: a\nstates: x\npriorities: x:2\ntrans: x -> a(x);\n", 5),
    ("word-parity\nalphabet: a\nranked-alphabet: f/2\nstates: x\npriorities: x:2\n", 3),
    ("tree-parity\nranked-alphabet: f/1\nstates: x\npriorities: x:2\ntrans: x f x;\n", 5),
    ("tree-parity\nranked-alphabet: f/1\nstates: x\npriorities: x:2\nfinal: x\n", 5),
    ("tree-parity\nalphabet: a\nranked-alphabet: f/1\nstates: x\npriorities: x:2\n", 2),
    ("tree-parity\nranked-alphabet: f/1\nstates: x\npriorities: x:2\naccepting: x\n", 5),
    ("word-det-exc\nalphabet: a\nstates: x\npriorities: x:2\nfinal: x\n", 5),
    ("word-det-exc\nalphabet: a\nstates: x\npriorities: x:2\ntrans: x -> a(x);\n", 5),
    ("tree-det-exc\nranked-alphabet: f/1\nstates: x\npriorities: x:2\ntrans: x f x;\n", 5),
]


class TestLinesOfAnotherKind:
    """A directive or transition form that the header's kind does not read
    is an error on its own line, not a line silently dropped."""

    @pytest.mark.parametrize("text, line", FOREIGN_LINES)
    def test_text_line_is_rejected(self, text, line):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line

    @pytest.mark.parametrize("text, line", FOREIGN_LINES)
    def test_without_the_line_the_text_parses(self, text, line):
        lines = text.splitlines()
        parse("\n".join(lines[: line - 1] + lines[line:]))

    @pytest.mark.parametrize(
        "doc, field, value",
        [
            (SAMPLE_DOCS[0], "ranked_alphabet", {"a": 1}),
            (SAMPLE_DOCS[0], "delta", {}),
            (SAMPLE_DOCS[0], "accepting", []),
            (SAMPLE_DOCS[2], "final", []),
            (SAMPLE_DOCS[2], "alphabet", ["f"]),
            (SAMPLE_DOCS[3], "transitions", []),
            (SAMPLE_DOCS[3], "final", []),
            (SAMPLE_DOCS[3], "colour", 1),
        ],
    )
    def test_json_field_is_rejected(self, doc, field, value):
        parse(json.dumps(doc))
        with pytest.raises(ParseError, match=f"takes no field '{field}'"):
            parse(json.dumps({**doc, field: value}))
