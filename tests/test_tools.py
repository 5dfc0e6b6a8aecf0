"""Smoke test of the in-process A/B timing script."""

import subprocess
import sys
from pathlib import Path

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
