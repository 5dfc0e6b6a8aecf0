import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_hes import hes_texts
from test_parsers import AUTOMATON_TEXTS, TREE_TOKENS, token_lines

from paritrace.automata import serialize
from paritrace.cli import main
from paritrace.harness import appendix_automaton

INTRO = """word-parity
alphabet: a b
states: x y
priorities: x:1 y:2
trans: x a x;
trans: x b y;
trans: y a x;
trans: y b y;
"""

FLAGGED = """word-parity
alphabet: a
states: x
priorities: x:1
final: x
trans: x a x;
"""

DET_WORD = """word-det-exc
alphabet: a
states: x y
priorities: x:2 y:2
trans: x a y;
"""

TREE_AUT = """tree-parity
ranked-alphabet: f/1
states: x
priorities: x:2
trans: x -> f(x);
"""

TREE_INPUT = """tree
root: n
node n = f(n);
"""

HES_TEXT = """ground: p q
u1 =mu u2 | {p}
u2 =nu u1 & {p q}
"""


@pytest.fixture
def intro_file(tmp_path):
    path = tmp_path / "intro.aut"
    path.write_text(INTRO)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


class TestMember:
    def test_accepting_case_with_both(self, capsys, intro_file):
        code, out, _ = run(capsys, ["member", intro_file, "--state", "x", "--lasso", ";ba", "--both"])
        assert code == 0 and out == "true"

    def test_rejecting_case(self, capsys, intro_file):
        code, out, _ = run(capsys, ["member", intro_file, "--state", "x", "--lasso", "b;a"])
        assert code == 0 and out == "false"

    def test_oracle_route(self, capsys, intro_file):
        code, out, _ = run(capsys, ["member", intro_file, "--state", "x", "--lasso", ";ba", "--oracle"])
        assert code == 0 and out == "true"

    def test_json_output(self, capsys, intro_file):
        code, out, _ = run(
            capsys, ["member", intro_file, "--state", "x", "--lasso", ";ba", "--json", "--both"]
        )
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] is True and doc["schema_version"] == 1

    def test_undeclared_state_is_usage_error(self, capsys, intro_file):
        code, _, err = run(capsys, ["member", intro_file, "--state", "zz", "--lasso", ";ba"])
        assert code == 2 and "error" in err

    def test_bad_lasso_is_usage_error(self, capsys, intro_file):
        code, _, err = run(capsys, ["member", intro_file, "--state", "x", "--lasso", "ba"])
        assert code == 2


class TestStats:
    """``--json`` stats: deterministic counters and the lattice shape."""

    def test_member_stats_on_appendix(self, capsys, tmp_path):
        path = tmp_path / "appendix.aut"
        path.write_text(serialize(appendix_automaton()))
        argv = ["member", str(path), "--state", "x", "--lasso", "a;bab", "--json"]
        outs = {run(capsys, argv) for _ in range(2)}
        # state z is reachable only on c, so the cone of (x, a;bab) is {x, y}:
        # priorities 1 and 2 give two one-state equations; the lasso has four
        # positions
        assert outs == {(
            0,
            '{"schema_version": 1, "stats": {"body_evals": 4, "iterations": [2, 0], '
            '"positions": 4, "widths": [1, 1]}, "verdict": true}',
            "",
        )}

    def test_tree_member_stats(self, capsys, tmp_path):
        aut, tree = tmp_path / "t.aut", tmp_path / "t.tree"
        aut.write_text(TREE_AUT)
        tree.write_text(TREE_INPUT)
        code, out, _ = run(capsys, ["tree-member", str(aut), str(tree), "--state", "x", "--json"])
        stats = json.loads(out)["stats"]
        assert code == 0 and (stats["positions"], stats["widths"]) == (1, [1])

    def test_finite_traces_stats(self, capsys):
        argv = ["finite-traces", str(SAMPLES / "flagged.aut"), "--state", "x", "--max-len", "3"]
        code, out, _ = run(capsys, argv + ["--json"])
        # the 15 words of length <= 3 over {a, b} are the positions, and the
        # one mu-equation ranges over x and y; Kleene iteration from the empty
        # sets adds the words ending in y's b-loop one length per step, so 4
        # strict steps and a fifth, stable evaluation
        assert code == 0 and json.loads(out) == {
            "schema_version": 1,
            "stats": {"body_evals": 5, "iterations": [4], "positions": 15, "widths": [2]},
            "words": ["b", "ab", "bb", "aab", "abb", "bbb"],
        }


def call_main(argv):
    """``main(argv)`` with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


DECORATED_TREE = """decorated-tree
root: n
node n = f:2(n, m);
node m = c:1();
"""


@st.composite
def edited(draw, samples):
    """A sample with a slice of at most 8 characters replaced by arbitrary
    text."""
    text = draw(st.sampled_from(samples))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 8)))
    return text[:i] + draw(st.text(max_size=4)) + text[j:]


def texts(samples):
    """Arbitrary text, a valid sample, or an edited sample."""
    return st.text(max_size=40) | st.sampled_from(samples) | edited(samples)


class TestCliFuzz:
    """Arbitrary file contents through ``main``: every command answers or
    rejects the file with exit 2 and one ``error:`` line."""

    @settings(max_examples=40, deadline=None)
    @given(
        AUTOMATON_TEXTS | texts([INTRO, FLAGGED, DET_WORD, TREE_AUT]),
        token_lines(TREE_TOKENS) | texts([TREE_INPUT, DECORATED_TREE]),
        hes_texts() | texts([HES_TEXT]),
        st.binary(max_size=8),
        st.sampled_from([";ab", "b;a", "a,b;b,"]),
    )
    def test_commands_never_raise(self, tmp_path_factory, aut, tree, hes, raw, lasso):
        d = tmp_path_factory.mktemp("fuzz")
        paths = {}
        for name, text in (("aut", aut), ("tree", tree), ("hes", hes)):
            paths[name] = str(d / name)
            (d / name).write_text(text, encoding="utf-8")
        paths["raw"] = str(d / "raw")
        (d / "raw").write_bytes(raw)
        (d / "valid.aut").write_text(TREE_AUT)
        for argv in (
            ["member", paths["aut"], "--state", "x", "--lasso", lasso],
            ["member", paths["raw"], "--state", "x", "--lasso", lasso],
            ["tree-member", paths["aut"], paths["tree"], "--state", "x", "--both"],
            ["tree-member", str(d / "valid.aut"), paths["tree"], "--state", "x", "--both"],
            ["flatten", paths["tree"]],
            ["flatten", paths["raw"]],
            ["solve-hes", paths["hes"]],
            ["solve-hes", paths["raw"]],
        ):
            code, out, err = call_main(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert err.count("error:") == 1 and err.startswith("error:"), (argv, err)
                assert err.count("\n") == 1 and out == "", (argv, err)
            else:
                assert err == "" and out.endswith("\n"), (argv, err)


class TestDecoratedCommands:
    def test_dtr_member(self, capsys, intro_file):
        code, out, _ = run(
            capsys,
            ["dtr-member", intro_file, "--state", "x", "--decorated", "b:1;a:2,b:1"],
        )
        assert code == 0 and out == "true"

    def test_dtr_grade_mismatch(self, capsys, intro_file):
        code, _, err = run(
            capsys, ["dtr-member", intro_file, "--state", "x", "--decorated", ";b:2"]
        )
        assert code == 2 and "grade" in err.lower()

    def test_tree_member_rejects_decorated_tree(self, capsys, tmp_path):
        aut, tree = tmp_path / "t.aut", tmp_path / "t.dtree"
        aut.write_text(TREE_AUT)
        tree.write_text("decorated-tree\nroot: n\nnode n = f:2(n);\n")
        code, out, err = run(capsys, ["tree-member", str(aut), str(tree), "--state", "x"])
        assert (code, out) == (2, "") and err.startswith("error:")

    def test_witness(self, capsys, intro_file):
        code, out, _ = run(capsys, ["witness", intro_file, "--state", "x", "--lasso", ";ba"])
        assert code == 0 and out == "b:1;a:2,b:1"

    def test_witness_none(self, capsys, intro_file):
        code, out, _ = run(capsys, ["witness", intro_file, "--state", "x", "--lasso", "b;a"])
        assert code == 0 and out == "none"

    def test_flatten(self, capsys):
        code, out, _ = run(capsys, ["flatten", "b:1;a:2,b:1"])
        assert code == 0 and out == "b;ab"

    def test_check_decorated(self, capsys):
        code, out, _ = run(capsys, ["check-decorated", "b:1;a:2,b:1", "--grade", "1"])
        assert code == 0 and out == "ok"

    def test_check_decorated_violation(self, capsys):
        code, out, _ = run(capsys, ["check-decorated", ";a:1"])
        assert code == 1 and "violation" in out


class TestOtherCommands:
    def test_solve_hes(self, capsys, tmp_path):
        path = tmp_path / "sys.hes"
        path.write_text(HES_TEXT)
        code, out, _ = run(capsys, ["solve-hes", str(path)])
        assert code == 0
        assert out == "u1 = {p q}\nu2 = {p q}"

    def test_finite_traces(self, capsys, tmp_path):
        path = tmp_path / "flag.aut"
        path.write_text(FLAGGED)
        code, out, _ = run(
            capsys, ["finite-traces", str(path), "--state", "x", "--max-len", "2"]
        )
        assert code == 0 and out.splitlines() == ["<epsilon>", "a", "aa"]

    def test_det_run_bottom(self, capsys, tmp_path):
        path = tmp_path / "det.aut"
        path.write_text(DET_WORD)
        code, out, _ = run(capsys, ["det-run", str(path), "--state", "x"])
        assert code == 0 and out == "bottom"

    def test_tree_member_both(self, capsys, tmp_path):
        aut = tmp_path / "tree.aut"
        aut.write_text(TREE_AUT)
        tree = tmp_path / "in.tree"
        tree.write_text(TREE_INPUT)
        code, out, _ = run(
            capsys, ["tree-member", str(aut), str(tree), "--state", "x", "--both"]
        )
        assert code == 0 and out == "true"

    def test_pinned(self, capsys):
        code, out, _ = run(capsys, ["pinned"])
        assert code == 0 and "ok=True" in out

    def test_fuzz_small(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--seed", "0", "--trials", "5"])
        assert code == 0 and "ok=True" in out

    def test_fuzz_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, ["fuzz", "--seed", "0", "--trials", "5", "--json"])
        code2, out2, _ = run(capsys, ["fuzz", "--seed", "0", "--trials", "5", "--json"])
        assert code1 == code2 == 0 and out1 == out2

    def test_fuzz_mutation_config_fails(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"mutation": "flip-signs", "properties": ["engine-vs-oracle"], "trials": 40}
            )
        )
        code, out, _ = run(capsys, ["fuzz", "--seed", "1", "--config", str(cfg)])
        assert code == 1 and "FAIL" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["member", "missing.aut", "--state", "x", "--lasso", ";a"])
        assert_one_line_usage_error(code, err)
        assert "missing.aut" in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["member"])  # missing required flags
        assert exc.value.code == 2


def assert_one_line_usage_error(code, err):
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


class TestBadFiles:
    """Unreadable files and malformed configs exit 2 with one error line."""

    def test_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, ["member", str(tmp_path), "--state", "x", "--lasso", ";a"])
        assert_one_line_usage_error(code, err)
        assert "directory" in err

    def test_binary_file(self, capsys, tmp_path):
        path = tmp_path / "binary.aut"
        path.write_bytes(b"word-parity\n\xff\xfe\x00\x81")
        code, _, err = run(capsys, ["member", str(path), "--state", "x", "--lasso", ";a"])
        assert_one_line_usage_error(code, err)
        assert "UTF-8" in err

    def test_duplicate_ground_items(self, capsys, tmp_path):
        path = tmp_path / "dup.hes"
        path.write_text("ground: p p\nu1 =mu u1\n")
        code, _, err = run(capsys, ["solve-hes", str(path)])
        assert_one_line_usage_error(code, err)
        assert "line 1" in err

    @pytest.mark.parametrize(
        "text",
        [
            "{bad",
            "[1]",
            '"trials"',
            '{"trails": 10}',
            '{"trials": "5"}',
            '{"trials": true}',
            '{"trials": -1}',
            '{"max_states": 2.5}',
            '{"max_states": 0}',
            '{"max_two_n": 1}',
            '{"properties": "trees"}',
            '{"properties": ["no-such-property"]}',
            '{"mutation": 3}',
            '{"mutation": "flip-everything"}',
            # above the oracle's enumeration cap, on words few enough for the engine
            '{"finite_maxlen": 9, "max_letters": 1, "properties": ["finite-traces"], "trials": 1}',
            # 9,841 words over 3 letters up to length 8, above the engine's 4,096
            '{"finite_maxlen": 8, "max_letters": 3, "properties": ["finite-traces"]}',
            # more letters than the word generators have
            '{"max_letters": 20, "properties": ["engine-vs-oracle"]}',
        ],
    )
    def test_bad_fuzz_config(self, capsys, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, _, err = run(capsys, ["fuzz", "--config", str(path)])
        assert_one_line_usage_error(code, err)

    @pytest.mark.parametrize(
        "text",
        [
            "{oops",
            '{"schema_version": 1, "kind": "word-parity", "states": 5, "alphabet": ["a"],'
            ' "transitions": [], "priorities": {}}',
            '{"schema_version": 1, "kind": "tree-parity", "states": ["x"],'
            ' "ranked_alphabet": {"f": "x"}, "transitions": [], "priorities": {"x": 1}}',
            '{"schema_version": 1, "kind": "word-parity", "states": ["x"], "alphabet": ["a"],'
            ' "transitions": [["x", "a"]], "priorities": {"x": 1}}',
            '{"states": ' + "[" * 5000,
        ],
        ids=["not-json", "states-not-list", "arity-not-int", "short-transition", "deep-nesting"],
    )
    def test_malformed_json_automaton(self, capsys, tmp_path, text):
        path = tmp_path / "bad.aut"
        path.write_text(text)
        code, _, err = run(capsys, ["member", str(path), "--state", "x", "--lasso", ";a"])
        assert_one_line_usage_error(code, err)

    @pytest.mark.parametrize(
        "text, command, line",
        [
            (INTRO.replace("trans: y b y;", "trans: y -> b(y);"), "member", 8),
            (INTRO.replace("states:", "ranked-alphabet: f/2\nstates:"), "member", 3),
            (TREE_AUT + "trans: x f x;\n", "tree-member", 6),
            (TREE_AUT.replace("priorities:", "final: x\npriorities:"), "tree-member", 4),
        ],
        ids=["word-with-tree-transition", "word-with-ranked-alphabet", "tree-with-word-transition",
             "tree-with-final"],
    )
    def test_line_of_another_kind(self, capsys, tmp_path, text, command, line):
        """A line that the header's kind does not read is an error that
        names its line, not a line silently dropped."""
        aut = tmp_path / "bad.aut"
        aut.write_text(text)
        tree = tmp_path / "input.tree"
        tree.write_text(TREE_INPUT)
        argv = [command, str(aut)] + ([str(tree)] if command == "tree-member" else ["--lasso", ";ab"])
        code, out, err = run(capsys, argv + ["--state", "x", "--both"])
        assert_one_line_usage_error(code, err)
        assert f"line {line}:" in err and out == ""

    def test_unreadable_fuzz_config(self, capsys, tmp_path):
        code, _, err = run(capsys, ["fuzz", "--config", str(tmp_path)])
        assert_one_line_usage_error(code, err)

    def test_good_fuzz_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"trials": 2, "properties": ["engine-vs-oracle"], "mutation": null}')
        code, out, _ = run(capsys, ["fuzz", "--config", str(path)])
        assert code == 0 and "trials=2" in out

    def test_finite_traces_config_within_cap(self, capsys, tmp_path):
        # 3,280 words over 3 letters up to length 7, within the engine's 4,096
        path = tmp_path / "cfg.json"
        path.write_text('{"trials": 2, "finite_maxlen": 7, "max_letters": 3, "properties": ["finite-traces"]}')
        code, out, _ = run(capsys, ["fuzz", "--config", str(path)])
        assert code == 0 and "trials=2" in out


class TestLimits:
    """Exceeded limits and bad budget values exit 2 with one error line;
    long inputs are not a limit."""

    def test_over_cap_lasso(self, capsys, intro_file):
        # 4,200 positions, above the 4,096-position cap lassos once had
        argv = ["member", intro_file, "--state", "x", "--lasso", ";" + "ab" * 2100]
        code, out, _ = run(capsys, argv)
        assert code == 0 and out == "true"
        code, oracle_out, _ = run(capsys, argv + ["--oracle"])
        assert code == 0 and oracle_out == out

    def test_iteration_budget_exhausted(self, capsys, intro_file, monkeypatch):
        monkeypatch.setenv("PARITRACE_ITER_BUDGET", "1")
        code, _, err = run(capsys, ["member", intro_file, "--state", "x", "--lasso", ";ba"])
        assert_one_line_usage_error(code, err)

    @pytest.mark.parametrize("text, max_len", [(INTRO, "20"), (FLAGGED, "5000")])
    def test_finite_traces_over_cap(self, capsys, tmp_path, text, max_len):
        path = tmp_path / "finite.aut"
        path.write_text(text)
        code, _, err = run(
            capsys, ["finite-traces", str(path), "--state", "x", "--max-len", max_len]
        )
        assert_one_line_usage_error(code, err)

    def test_finite_traces_at_cap(self, capsys, tmp_path):
        # a one-letter alphabet reaches the 4,096-word cap at max-len 4095
        path = tmp_path / "finite.aut"
        path.write_text(FLAGGED)
        code, out, _ = run(
            capsys, ["finite-traces", str(path), "--state", "x", "--max-len", "4095"]
        )
        assert code == 0
        assert out.splitlines() == ["<epsilon>"] + ["a" * n for n in range(1, 4096)]

    def test_priority_1400_is_not_a_limit(self, capsys, tmp_path):
        # the literal system has 1,400 nested equations; membership solves
        # the compacted one, a single nu-equation
        path = tmp_path / "deep.aut"
        path.write_text("word-parity\nalphabet: a\nstates: x\npriorities: x:1400\ntrans: x a x;\n")
        argv = ["member", str(path), "--state", "x", "--lasso", ";a"]
        assert run(capsys, argv) == (0, "true", "")
        assert run(capsys, argv + ["--oracle"]) == (0, "true", "")
        code, out, _ = run(capsys, argv + ["--json"])
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] is True
        assert len(doc["stats"]["iterations"]) == 1

    @staticmethod
    def hes_chain(tmp_path, n, alternating):
        """``u0 =mu u1 | {p}``, links ``u_i = u_(i+1)``, ``u_(n-1) =nu u0``."""
        lines = ["ground: p q", "u0 =mu u1 | {p}"]
        for i in range(1, n - 1):
            sign = "nu" if alternating and i % 2 else "mu"
            lines.append(f"u{i} ={sign} u{i + 1}")
        lines.append(f"u{n - 1} =nu u0")
        path = tmp_path / "chain.hes"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_deep_hes_chain_solves(self, capsys, tmp_path):
        code, out, err = run(capsys, ["solve-hes", self.hes_chain(tmp_path, 1100, False)])
        assert code == 0 and err == ""
        assert out.splitlines() == [f"u{i} = {{p q}}" for i in range(1100)]

    def test_deeper_hes_chain_exhausts_budget(self, capsys, tmp_path, monkeypatch):
        # the default budget of 1,000,000 is exhausted too, in about ten
        # times the time
        monkeypatch.setenv("PARITRACE_ITER_BUDGET", "100000")
        code, _, err = run(capsys, ["solve-hes", self.hes_chain(tmp_path, 1501, True)])
        assert_one_line_usage_error(code, err)
        assert "budget 100000" in err

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_bad_budget_value(self, capsys, intro_file, monkeypatch, raw):
        monkeypatch.setenv("PARITRACE_ITER_BUDGET", raw)
        code, _, err = run(capsys, ["member", intro_file, "--state", "x", "--lasso", ";ba"])
        assert_one_line_usage_error(code, err)
        assert "PARITRACE_ITER_BUDGET" in err

    def test_negative_fuzz_trials(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--trials", "-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--trials" in err and "Traceback" not in err

    def test_zero_fuzz_trials_run_none(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["fuzz", "--trials", "0"])
        assert code == 0 and "trials=0 ok=True" in out
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"trials": 7, "properties": ["engine-vs-oracle"]}')
        code, out, _ = run(capsys, ["fuzz", "--trials", "0", "--config", str(cfg), "--json"])
        doc = json.loads(out)
        assert code == 0 and doc["trials"] == 0
        assert [(p["passed"], p["failed"]) for p in doc["properties"]] == [(0, 0)]

    def test_negative_max_len(self, capsys, intro_file):
        with pytest.raises(SystemExit) as exc:
            main(["finite-traces", intro_file, "--state", "x", "--max-len", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-len" in err and "Traceback" not in err


SAMPLES = Path(__file__).parent.parent / "samples"


def cold_run(args, hash_seed="0", expect=0):
    """Run ``python <args>`` in a fresh process with this paritrace importable;
    return its stdout after checking its exit code."""
    import paritrace

    env = dict(
        os.environ,
        PYTHONPATH=str(Path(paritrace.__file__).parent.parent),
        PYTHONHASHSEED=hash_seed,
    )
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=60)
    assert proc.returncode == expect, proc.stderr
    return proc.stdout


class TestColdStart:
    """A cold command imports only what it runs; the rest loads on use."""

    def test_cli_import_skips_unused_modules(self):
        probe = (
            "import sys; before = set(sys.modules); import paritrace.cli; "
            "print(sorted({'dataclasses', 'inspect', 'paritrace.harness'} & (set(sys.modules) - before)))"
        )
        assert cold_run(["-c", probe]).decode().strip() == "[]"

    def test_submodules_load_on_first_access(self):
        probe = (
            "import sys, paritrace; "
            "assert 'paritrace.harness' not in sys.modules; "
            "print(paritrace.harness.__name__)"
        )
        assert cold_run(["-c", probe]).decode().strip() == "paritrace.harness"
        import paritrace

        with pytest.raises(AttributeError):
            paritrace.no_such_module


@pytest.mark.skipif(not SAMPLES.exists(), reason="samples directory not present")
class TestShippedCorpus:
    def test_both_never_disagrees_on_word_samples(self, capsys):
        from inputs import all_lassos

        from paritrace.omega_input import format_lasso
        from paritrace.automata import parse, BuchiWordAutomaton, buchi_to_parity

        for name in ("intro.aut", "appendix.aut", "buchi.aut"):
            path = SAMPLES / name
            aut = parse(path.read_text())
            if isinstance(aut, BuchiWordAutomaton):
                aut = buchi_to_parity(aut)
            for state in aut.states:
                for w in all_lassos(aut.alphabet[:2], 1, 2):
                    code, out, _ = run(
                        capsys,
                        [
                            "member",
                            str(path),
                            "--state",
                            state,
                            "--lasso",
                            format_lasso(w),
                            "--both",
                        ],
                    )
                    assert code == 0 and out in ("true", "false")

    def test_tree_sample_agrees(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "tree-member",
                str(SAMPLES / "tree.aut"),
                str(SAMPLES / "input.tree"),
                "--state",
                "x",
                "--both",
            ],
        )
        assert code == 0 and out == "true"

    def test_witness_does_not_depend_on_hash_seed(self):
        argv = ["-m", "paritrace.cli", "witness", str(SAMPLES / "appendix.aut"),
                "--state", "x", "--lasso", "a;bab", "--json"]
        outs = {seed: cold_run(argv, seed) for seed in ("0", "1", "2")}
        assert outs["0"] == outs["1"] == outs["2"], outs

    def test_tree_violation_does_not_depend_on_hash_seed(self, tmp_path):
        # every node of the cycle has the odd maximum; the message names the first
        tree = tmp_path / "odd.dtree"
        tree.write_text("decorated-tree\nroot: n0\nnode n0 = f:3(n1);\nnode n1 = f:3(n2);\nnode n2 = f:3(n0);\n")
        argv = ["-m", "paritrace.cli", "check-decorated", str(tree), "--json"]
        outs = {seed: cold_run(argv, seed, expect=1) for seed in ("0", "1", "2", "3")}
        assert len(set(outs.values())) == 1, outs
        assert "at node 'n0'" in outs["0"].decode()

    def test_det_sample(self, capsys):
        code, out, _ = run(capsys, ["det-run", str(SAMPLES / "det.aut"), "--state", "x"])
        assert code == 0 and out == "a:1;b:2"

    def test_hes_sample(self, capsys):
        code, out, _ = run(capsys, ["solve-hes", str(SAMPLES / "system.hes")])
        assert code == 0 and "u1 = {p q}" in out

    def test_finite_sample(self, capsys):
        code, out, _ = run(
            capsys,
            ["finite-traces", str(SAMPLES / "flagged.aut"), "--state", "x", "--max-len", "3"],
        )
        assert code == 0
        assert out.splitlines() == ["b", "ab", "bb", "aab", "abb", "bbb"]
