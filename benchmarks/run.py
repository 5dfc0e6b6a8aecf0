#!/usr/bin/env python3
"""paritrace benchmark: four workloads, end-to-end and per layer.

    python3 benchmarks/run.py --workload campaign --seed 3 --seconds 25 --trace 0
    python3 benchmarks/run.py            # all four workloads in sequence

Run from the repository root.  Each workload runs in fresh single-threaded
processes (``worker.py``) with ``PYTHONHASHSEED=0`` and the repository's
``src`` on ``PYTHONPATH``.  With ``--trace 0`` the last line of stdout is
the end-to-end result; with ``--trace 1`` it is the per-layer result of a
separate traced run, whose spans go to ``benchmarks/out/trace/``.  See
``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: set-up is measured in this many setup-only processes plus the measuring one
SETUP_PROBES = 8
#: every run ends well inside three minutes
RUN_DEADLINE_S = 170.0

#: metric name -> unit, as declared in BENCHMARK.json
UNITS = {
    m["name"]: m["unit"]
    for kind in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    # compiled modules are cached inside the checkout, as an installed
    # package would have them, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def _worker(inputs: Path, mode: str, seconds: float, deadline: float, spans: Path | None = None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs), "--mode", mode,
            "--seconds", str(seconds)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        argv + ["--spawned-at", repr(spawned)],
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} run of {inputs.parent.name} passed the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {inputs.parent.name} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _metric(name: str, value) -> dict:
    return {"value": value, "unit": UNITS[name]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    run_dir = OUT / f"{workload}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = run_dir / "inputs.json"
    inputs.write_text(json.dumps(workloads.make_inputs(workload, seed)), encoding="utf-8")
    if trace:
        spans = OUT / "trace" / f"{workload}-seed{seed}.jsonl"
        res = _worker(inputs, "trace", seconds, deadline, spans)
        metrics = {k: _metric(k, v) for k, v in res["metrics"].items()}
    else:
        setups = [_worker(inputs, "setup", seconds, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = _worker(inputs, "measure", seconds, deadline)
        setups.append(res["setup_s"])
        metrics = {
            "ops_per_s": _metric("ops_per_s", res["ops_per_s"]),
            "latency_p50_ms": _metric("latency_p50_ms", res["latency_p50_ms"]),
            "latency_tail_ms": _metric("latency_tail_ms", res["latency_tail_ms"]),
            "peak_rss_mb": _metric("peak_rss_mb", res["peak_rss_mb"]),
            "setup_s": _metric("setup_s", statistics.median(setups)),
        }
        res["setup_runs_s"] = setups
    for err in res["errors"]:
        print(f"{workload}: {err}", file=sys.stderr)
    detail = {k: v for k, v in res.items() if k != "metrics"}
    print(json.dumps({"workload": workload, "seed": seed, "detail": detail}), file=sys.stderr)
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1), encoding="utf-8"
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paritrace benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default=None,
                    help="one workload (default: all four in sequence)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "paritrace" / "__init__.py").is_file():
        print(f"error: no paritrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        for workload in [args.workload] if args.workload else workloads.WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
