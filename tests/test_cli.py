import json

import pytest

from paritrace.cli import main

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

    def test_unreadable_fuzz_config(self, capsys, tmp_path):
        code, _, err = run(capsys, ["fuzz", "--config", str(tmp_path)])
        assert_one_line_usage_error(code, err)

    def test_good_fuzz_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"trials": 2, "properties": ["engine-vs-oracle"], "mutation": null}')
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
        # one equation per priority class: 1,400 nested equations
        path = tmp_path / "deep.aut"
        path.write_text("word-parity\nalphabet: a\nstates: x\npriorities: x:1400\ntrans: x a x;\n")
        argv = ["member", str(path), "--state", "x", "--lasso", ";a"]
        assert run(capsys, argv) == (0, "true", "")
        assert run(capsys, argv + ["--oracle"]) == (0, "true", "")

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

    def test_negative_max_len(self, capsys, intro_file):
        with pytest.raises(SystemExit) as exc:
            main(["finite-traces", intro_file, "--state", "x", "--max-len", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-len" in err and "Traceback" not in err


SAMPLES = __import__("pathlib").Path(__file__).parent.parent / "samples"


@pytest.mark.skipif(not SAMPLES.exists(), reason="samples directory not present")
class TestShippedCorpus:
    def test_both_never_disagrees_on_word_samples(self, capsys):
        from paritrace.omega_input import all_lassos, format_lasso
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
