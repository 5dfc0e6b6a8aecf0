"""Smoke test of the in-process A/B timing script."""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_ab_rounds_runs_the_repo_against_itself():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_rounds.py"), src, src, "deep-nesting", "--rounds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "deep-nesting seed 0, rounds per side: 1 (round time, ms)"
    assert lines[1].startswith("  A ") and lines[2].startswith("  B ")
    assert "median" in lines[1] and "won" in lines[2]
    assert lines[3].startswith("  B against A: ")


def test_ab_rounds_rejects_a_directory_without_the_package(tmp_path):
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_rounds.py"), src, str(tmp_path), "campaign"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2 and "holds no paritrace package" in proc.stderr


@pytest.mark.parametrize("workload", ["deep-nesting", "tree-cli"])
def test_ab_rounds_rejects_a_tree_that_counts_differently(tmp_path, workload):
    """The warm-up compares each engine call's whole ``MembershipVerdict``:
    a copy of the package whose verdicts agree but whose ``SolveStats``
    count one more body evaluation is refused before any timed round."""
    src = ROOT / "src"
    shutil.copytree(src / "paritrace", tmp_path / "paritrace")
    trace_py = tmp_path / "paritrace" / "trace.py"
    text = trace_py.read_text(encoding="utf-8")
    counted = "SolveStats(tuple(solver.steps), solver.body_evals,"
    assert text.count(counted) == 1
    miscounted = text.replace(counted, "SolveStats(tuple(solver.steps), solver.body_evals + 1,")
    trace_py.write_text(miscounted, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_rounds.py"), str(src), str(tmp_path), workload]
        + ["--rounds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    assert "error: the two trees give different outputs at op 0" in proc.stderr
    assert "body_evals=" in proc.stderr


def test_ab_rounds_rejects_a_tree_whose_flattening_report_differs(tmp_path):
    """The campaign warm-up compares each flattening check's whole report:
    a copy whose reports drop the ``invariant`` entry of ``checks``, with
    the same agreement, membership and witness, is refused before any
    timed round."""
    src = ROOT / "src"
    shutil.copytree(src / "paritrace", tmp_path / "paritrace")
    trace_py = tmp_path / "paritrace" / "trace.py"
    text = trace_py.read_text(encoding="utf-8")
    judged = "witness_ok = all(checks.values())"
    assert text.count(judged) == 1
    trace_py.write_text(text.replace(judged, judged + '; checks.pop("invariant")'), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_rounds.py"), str(src), str(tmp_path), "campaign"]
        + ["--rounds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    assert "error: the two trees give different outputs at op " in proc.stderr
    assert "'invariant': True" in proc.stderr


def test_ab_rounds_rejects_a_parser_that_drops_a_transition(tmp_path):
    """Before the warm-up, each side serialises the automata it parsed: a
    copy whose parser drops the word transitions on every fifth line is
    refused before any engine call is compared or timed."""
    src = ROOT / "src"
    shutil.copytree(src / "paritrace", tmp_path / "paritrace")
    automata_py = tmp_path / "paritrace" / "automata.py"
    text = automata_py.read_text(encoding="utf-8")
    kept = "trans.append(tuple(parts))"
    assert text.count(kept) == 1
    automata_py.write_text(text.replace(kept, kept + " if lineno % 5 else None"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_rounds.py"), str(src), str(tmp_path), "deep-nesting"]
        + ["--rounds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    assert "error: the two trees parse automaton 0 differently" in proc.stderr


def _code_references(paths) -> set:
    """Every name that the code under ``paths`` reads: ``ast.Name`` ids,
    ``ast.Attribute`` attributes and import aliases, not strings."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rpartition(".")[2])
    return found


def test_every_public_name_in_src_has_a_caller_outside_tests():
    """A name in a module's ``__all__`` is library code only if ``src/``,
    ``benchmarks/`` or ``tools/`` refers to it in code; names that only the
    tests use belong in ``tests/``."""
    used = _code_references(
        p for d in ("src", "benchmarks", "tools") for p in sorted((ROOT / d).rglob("*.py"))
    )
    unused = []
    for path in sorted((ROOT / "src" / "paritrace").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names = ast.literal_eval(node.value)
                unused += [f"{path.stem}.{n}" for n in names if n not in used]
    assert unused == []
