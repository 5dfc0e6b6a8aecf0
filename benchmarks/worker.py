"""One workload in one fresh process: set-up, timed rounds, verification.

Started by ``run.py`` with the program's ``src`` on ``PYTHONPATH`` and a
fixed ``PYTHONHASHSEED``.  Modes:

* ``setup``   -- set up, print the set-up time, exit;
* ``measure`` -- set up, run whole rounds of the op list for about
  ``--seconds``, verify every output, print the end-to-end figures;
* ``trace``   -- set up under spans, then run rounds in which every op runs
  twice back to back: untraced, as a user calls it, and split into its
  public calls, each under a span; verify, write the spans and print the
  per-layer figures.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import tail_percentile  # noqa: E402

CLI_TIMEOUT_S = 60
PROBE_SPAWNS = 7


class Failed:
    """Result of an op that raised; ``known`` when it is the named fault."""

    def __init__(self, exc: BaseException, known: bool):
        self.name = type(exc).__name__
        self.known = known

    def key(self):
        return ("failed", self.name)


def _plain(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _recheck(system, assignment) -> bool:
    """Substitute the solution into every equation body (what ``hes.solve``
    does under ``check=True``)."""
    return all(eq.body(assignment) == assignment[i] for i, eq in enumerate(system.equations))


def _engine_split(call, aut, x, inp):
    """The engine's public calls one by one: build, solve without the
    re-check, the re-check, the membership lookup."""
    from paritrace import hes, trace

    rh = call("trace.build_restricted_hes", trace.build_restricted_hes, aut, inp, "ordinary")
    sol = call("hes.solve", hes.solve, rh.hes, check=False)
    fixed = call("hes.check", _recheck, rh.hes, sol.assignment)
    value = call("trace.member", rh.member, sol.assignment, x, aut.priority(x))
    cells = sum(len(c.domain) for c in rh.carriers) * len(rh.positions)
    return {
        "value": value,
        "fixed": fixed,
        "body_evals": sol.body_evals,
        "kleene_steps": sum(sol.iterations),
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# Word workloads: campaign, long-lasso, deep-nesting
# ---------------------------------------------------------------------------

class WordWorkload:
    warmup_ops = 1

    def __init__(self, spec, out_dir: Path):
        self.spec = spec
        self.out_dir = out_dir

    def setup(self, call=_plain):
        from paritrace import automata, omega_input

        self.auts = [call("automata.parse", automata.parse, text) for text in self.spec["automata"]]
        self.ops = [
            (
                self.auts[op["aut"]],
                op["state"],
                call("omega_input.parse_lasso", omega_input.parse_lasso, op["lasso"]),
            )
            for op in self.spec["ops"]
        ]
        self.faults = [op.get("known_fault") for op in self.spec["ops"]]
        for i in range(min(self.warmup_ops, len(self.ops))):
            self.run_op(i)

    def run_op(self, i):
        from paritrace import trace

        aut, x, w = self.ops[i]
        return trace.parity_trace_membership(aut, x, w).value

    def traced_op(self, i, call):
        aut, x, w = self.ops[i]
        return _engine_split(call, aut, x, w)

    @staticmethod
    def key(result):
        return result

    @staticmethod
    def traced_key(result):
        return result["value"]

    def verify(self, results) -> list[str]:
        errors = []
        ref_auts: dict[int, reference.WordAutomaton] = {}
        for i, (op, res) in enumerate(zip(self.spec["ops"], results)):
            if isinstance(res, Failed):
                continue
            if op["aut"] not in ref_auts:
                ref_auts[op["aut"]] = reference.parse_word_automaton(self.spec["automata"][op["aut"]])
            stem, cycle = reference.parse_lasso_text(op["lasso"])
            want = reference.accepts(ref_auts[op["aut"]], op["state"], stem, cycle)
            errors.extend(f"op {i}: {e}" for e in self.check_one(i, res, want))
        return errors

    def check_one(self, i, res, want):
        if res != want:
            yield f"engine says {res}, reference says {want}"

    def positive(self, res) -> bool:
        return bool(res)


class CampaignWorkload(WordWorkload):
    """One op: engine membership, graph oracle, flattening check."""

    warmup_ops = 50

    def run_op(self, i):
        from paritrace import oracle, trace

        aut, x, w = self.ops[i]
        engine = trace.parity_trace_membership(aut, x, w).value
        graph = oracle.lasso_acceptance(aut, x, w).value
        report = trace.flattening_theorem_check(aut, x, w)
        return engine, graph, report

    def traced_op(self, i, call):
        from paritrace import oracle, trace

        aut, x, w = self.ops[i]
        out = _engine_split(call, aut, x, w)
        out["graph"] = call("oracle.lasso_acceptance", oracle.lasso_acceptance, aut, x, w).value
        report = call("trace.flattening_theorem_check", trace.flattening_theorem_check, aut, x, w)
        out["report"] = (report.agree, report.membership)
        return out

    @staticmethod
    def key(result):
        engine, graph, report = result
        return engine, graph, report.agree, report.membership

    @staticmethod
    def traced_key(result):
        return result["value"], result["graph"], result["report"][0], result["report"][1]

    def check_one(self, i, res, want):
        from paritrace.omega_input import check_decorated_invariant, flatten_word, normalize

        engine, graph, report = res
        aut, x, w = self.ops[i]
        if (engine, graph, report.membership) != (want, want, want):
            yield f"engine {engine}, oracle {graph}, flattening {report.membership}; reference {want}"
        if not report.agree:
            yield "flattening report disagrees"
        if want:
            xi = report.witness
            if xi is None:
                yield "positive without a witness"
                return
            if normalize(flatten_word(xi)) != normalize(w):
                yield "witness does not flatten to the input"
            problems = check_decorated_invariant(xi, aut.priority(x))
            if problems:
                yield "witness breaks the parity law: " + "; ".join(problems)

    def positive(self, res) -> bool:
        return bool(res[0])


# ---------------------------------------------------------------------------
# tree-cli
# ---------------------------------------------------------------------------

def _quiet_main(main, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TreeCliWorkload:
    """One op: a cold ``python -m paritrace.cli tree-member ... --both --json``."""

    def __init__(self, spec, out_dir: Path):
        self.spec = spec
        self.out_dir = out_dir
        self.faults = [None] * len(spec["ops"])

    def setup(self, call=_plain):
        from paritrace import automata, omega_input

        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for op in self.spec["ops"]:
            aut_path = self.out_dir / f"aut{op['aut']}.aut"
            tree_path = self.out_dir / f"tree{op['tree']}.tree"
            aut_path.write_text(self.spec["automata"][op["aut"]], encoding="utf-8")
            tree_path.write_text(self.spec["trees"][op["tree"]], encoding="utf-8")
            self.paths.append((str(aut_path), str(tree_path)))
        self.auts = [call("automata.parse", automata.parse, t) for t in self.spec["automata"]]
        self.trees = [call("omega_input.parse_tree", omega_input.parse_tree, t) for t in self.spec["trees"]]
        self.ops = [
            (self.auts[op["aut"]], op["state"], self.trees[op["tree"]]) for op in self.spec["ops"]
        ]
        self.run_op(0)

    def argv(self, i):
        aut_path, tree_path = self.paths[i]
        state = self.spec["ops"][i]["state"]
        return ["tree-member", aut_path, tree_path, "--state", state, "--both", "--json"]

    def run_op(self, i):
        proc = subprocess.run(
            [sys.executable, "-m", "paritrace.cli", *self.argv(i)],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def untraced_inprocess_op(self, i):
        """The traced op's calls, as a user of the library makes them."""
        from paritrace import automata, cli, omega_input, oracle, trace

        aut_path, tree_path = self.paths[i]
        x = self.spec["ops"][i]["state"]
        aut = automata.parse(_read(aut_path))
        t = omega_input.parse_tree(_read(tree_path))
        value = trace.tree_language_membership(aut, x, t).value
        graph = oracle.tree_membership_oracle(aut, x, t).value
        code, out = _quiet_main(cli.main, self.argv(i))
        return code, _cli_verdicts(out), value, graph

    def traced_op(self, i, call):
        from paritrace import automata, cli, omega_input, oracle

        aut_path, tree_path = self.paths[i]
        x = self.spec["ops"][i]["state"]
        aut = call("automata.parse", automata.parse, _read(aut_path))
        t = call("omega_input.parse_tree", omega_input.parse_tree, _read(tree_path))
        out = _engine_split(call, aut, x, t)
        out["graph"] = call("oracle.tree_membership_oracle", oracle.tree_membership_oracle, aut, x, t).value
        code, text = call("cli.main", _quiet_main, cli.main, self.argv(i))
        out["cli"] = (code, _cli_verdicts(text))
        return out

    @staticmethod
    def key(result):
        code, stdout = result
        return code, _cli_verdicts(stdout)

    @staticmethod
    def traced_key(result):
        return result["cli"][0], result["cli"][1], result["value"], result["graph"]

    def verify(self, results) -> list[str]:
        from paritrace import oracle
        from paritrace.omega_input import (
            DecorationError,
            check_decorated_invariant,
            decorate_run,
            delst,
            tree_reps_bisimilar,
        )

        errors = []
        for i, res in enumerate(results):
            aut, x, t = self.ops[i]
            code, verdicts = self.key(res)
            if code != 0:
                errors.append(f"op {i}: exit code {code}")
                continue
            got = oracle.tree_membership_oracle(aut, x, t)
            if verdicts != (got.value, got.value):
                errors.append(f"op {i}: cli says {verdicts}, game oracle says {got.value}")
            if got.value:
                try:
                    xi = decorate_run(got.run, aut.priorities)
                except DecorationError as exc:
                    errors.append(f"op {i}: witness breaks the parity law: {exc}")
                    continue
                if not tree_reps_bisimilar(delst(xi), t):
                    errors.append(f"op {i}: witness is not bisimilar to the input tree")
                problems = check_decorated_invariant(xi, aut.priority(x))
                if problems:
                    errors.append(f"op {i}: witness breaks the parity law: " + "; ".join(problems))
        return errors

    def positive(self, res) -> bool:
        verdicts = self.key(res)[1]
        return bool(verdicts and verdicts[0])


def _cli_verdicts(stdout: str):
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc.get("verdict"), doc.get("oracle")


WORKLOADS = {
    "campaign": CampaignWorkload,
    "long-lasso": WordWorkload,
    "deep-nesting": WordWorkload,
    "tree-cli": TreeCliWorkload,
}


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def _attempt(wl, i, fn):
    try:
        return fn(i)
    except Exception as exc:  # the op boundary: record and go on
        known = type(exc).__name__ == wl.faults[i]
        if not known:
            traceback.print_exc(file=sys.stderr)
        return Failed(exc, known)


def _round(wl, fn, latencies=None):
    results = []
    for i in range(len(wl.ops)):
        t0 = perf_counter_ns()
        res = _attempt(wl, i, fn)
        t1 = perf_counter_ns()
        if latencies is not None and not isinstance(res, Failed):
            latencies.append(t1 - t0)
        results.append(res)
    return results


def _repeat_round(wl, first_keys, latencies) -> int:
    """Run the ops again, keeping only their latencies; return how many
    outputs differ from the first round's.  Results are dropped as soon as
    they are compared, so memory stays that of one round."""
    differ = 0
    for i in range(len(wl.ops)):
        t0 = perf_counter_ns()
        res = _attempt(wl, i, wl.run_op)
        t1 = perf_counter_ns()
        if isinstance(res, Failed):
            differ += res.key() != first_keys[i]
        else:
            latencies.append(t1 - t0)
            differ += wl.key(res) != first_keys[i]
    return differ


def _keys(wl, results, key):
    return [r.key() if isinstance(r, Failed) else key(r) for r in results]


def measure(wl, seconds: float) -> dict:
    latencies = array("q")
    round_times = []
    mismatches = 0
    start = perf_counter()
    first = _round(wl, wl.run_op, latencies)
    round_times.append(perf_counter() - start)
    first_keys = _keys(wl, first, wl.key)
    while perf_counter() - start + statistics.mean(round_times) <= seconds:
        r0 = perf_counter()
        mismatches += _repeat_round(wl, first_keys, latencies)
        round_times.append(perf_counter() - r0)
    elapsed = perf_counter() - start
    usage = resource.RUSAGE_CHILDREN if isinstance(wl, TreeCliWorkload) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    errors = wl.verify(first)
    if mismatches:
        errors.append(f"{mismatches} outputs of later rounds differ from the first round")
    failed = sum(1 for r in first if isinstance(r, Failed))
    unknown = sum(1 for r in first if isinstance(r, Failed) and not r.known)
    if unknown:
        errors.append(f"{unknown} ops failed with an error other than the known fault")
    latencies = sorted(latencies)
    q = tail_percentile(len(first) - failed)
    return {
        "correct": not errors,
        "errors": errors[:20],
        "attempted": len(first) * len(round_times),
        "failed": failed * len(round_times),
        "round_s": round_times,
        "ops_per_s": len(latencies) / elapsed,
        "latency_p50_ms": _percentile(latencies, 50) / 1e6,
        "latency_tail_ms": _percentile(latencies, q) / 1e6,
        "tail_pct": q,
        "peak_rss_mb": peak_rss_mb,
        "positives": sum(1 for r in first if not isinstance(r, Failed) and wl.positive(r)),
    }


def _percentile(sorted_values, q):
    """Nearest-rank percentile."""
    if not sorted_values:
        return float("nan")
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

OP_LAYERS = {
    "trace.build_ms": "trace.build_restricted_hes",
    "hes.solve_ms": "hes.solve",
    "hes.check_ms": "hes.check",
    "oracle.lasso_ms": "oracle.lasso_acceptance",
    "trace.flattening_ms": "trace.flattening_theorem_check",
    "oracle.tree_ms": "oracle.tree_membership_oracle",
    "cli.main_ms": "cli.main",
}
SETUP_LAYERS = {
    "automata.parse_ms": ("automata.parse",),
    "omega_input.parse_ms": ("omega_input.parse_lasso", "omega_input.parse_tree"),
}


def _spawn_ms(argv) -> tuple[float, str]:
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
    return (perf_counter() - t0) * 1000.0, proc.stdout


def traced(wl, seconds: float, tracer: Tracer, spans_path: Path) -> dict:
    """``tracer`` holds the set-up spans; the rounds add the op spans."""
    n_setup = len(tracer.spans)
    setup_totals = tracer.totals()
    off_times, on_times, round_times = [], [], []
    first = None
    counters = None
    mismatches = 0
    untraced = wl.untraced_inprocess_op if isinstance(wl, TreeCliWorkload) else wl.run_op
    untraced_key = (lambda r: r) if isinstance(wl, TreeCliWorkload) else wl.key
    traced_key = wl.traced_key
    start = perf_counter()

    def traced_one(i):
        tracer.op = i
        return tracer.call("op", wl.traced_op, i, tracer.call)

    while True:
        # each op runs untraced and traced back to back, in alternating
        # order, so that drifts in machine speed fall on both sides alike
        off, on = [], []
        off_ns = on_ns = 0
        r0 = perf_counter()
        for i in range(len(wl.ops)):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                t0 = perf_counter_ns()
                res = _attempt(wl, i, traced_one if side else untraced)
                dt = perf_counter_ns() - t0
                if side:
                    on.append(res)
                    on_ns += dt
                else:
                    off.append(res)
                    off_ns += dt
        round_times.append(perf_counter() - r0)
        off_times.append(off_ns)
        on_times.append(on_ns)
        off_keys = _keys(wl, off, untraced_key)
        if _keys(wl, on, traced_key) != off_keys:
            mismatches += 1
        if first is None:
            first, first_off = off_keys, off
            counters = {
                name: sum(r[name] for r in on if not isinstance(r, Failed))
                for name in ("body_evals", "kleene_steps", "cells")
            }
            unfixed = sum(1 for r in on if not isinstance(r, Failed) and not r["fixed"])
        elif off_keys != first:
            mismatches += 1
        elapsed = perf_counter() - start
        if elapsed + statistics.mean(round_times) > seconds:
            break
    n_ops = len(wl.ops) * len(on_times)
    totals = tracer.totals(n_setup)
    metrics = {}
    for metric, name in OP_LAYERS.items():
        metrics[metric] = totals.get(name, (0, 0))[1] / n_ops / 1e6
    for metric, names in SETUP_LAYERS.items():
        metrics[metric] = sum(setup_totals.get(n, (0, 0))[1] for n in names) / 1e6
    build_ns = totals.get("trace.build_restricted_hes", (0, 0))[1] / len(on_times)
    solve_ns = totals.get("hes.solve", (0, 0))[1] / len(on_times)
    metrics["trace.cells"] = counters["cells"]
    metrics["trace.build_ns_per_cell"] = build_ns / counters["cells"]
    metrics["hes.body_evals"] = counters["body_evals"]
    metrics["hes.kleene_steps"] = counters["kleene_steps"]
    metrics["hes.useful_eval_ratio"] = counters["kleene_steps"] / counters["body_evals"]
    metrics["hes.us_per_body_eval"] = solve_ns / 1e3 / counters["body_evals"]
    metrics["spans.overhead_pct"] = (sum(on_times) / sum(off_times) - 1) * 100
    metrics["cli.import_ms"] = 0.0
    metrics["interp.startup_ms"] = 0.0
    if isinstance(wl, TreeCliWorkload):
        metrics["interp.startup_ms"] = statistics.median(
            _spawn_ms([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_SPAWNS)
        )
        metrics["cli.import_ms"] = statistics.median(
            float(_spawn_ms([sys.executable, "-c", _IMPORT_PROBE])[1]) for _ in range(PROBE_SPAWNS)
        )
    errors = []
    if mismatches:
        errors.append(f"{mismatches} rounds where traced and untraced outputs differ")
    if unfixed:
        errors.append(f"{unfixed} solutions fail the fixpoint re-check")
    if isinstance(wl, TreeCliWorkload):
        errors.extend(_tree_inprocess_errors(first_off))
    else:
        errors.extend(wl.verify(first_off))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    layers = {
        name: {"calls": calls, "self_ms": self_ns / 1e6}
        for name, (calls, self_ns) in tracer.totals().items()
    }
    spans_path.with_suffix(".layers.json").write_text(
        json.dumps({"rounds": len(on_times), "ops_per_round": len(wl.ops), "spans": layers}, indent=1),
        encoding="utf-8",
    )
    failed = sum(1 for r in first_off if isinstance(r, Failed))
    return {
        "correct": not errors,
        "errors": errors[:20],
        "attempted": len(wl.ops) * 2 * len(on_times),
        "failed": failed * 2 * len(on_times),
        "metrics": metrics,
    }


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import paritrace.cli; "
    "print((time.perf_counter() - t) * 1000)"
)


def _tree_inprocess_errors(results):
    errors = []
    for i, res in enumerate(results):
        if isinstance(res, Failed):
            errors.append(f"op {i}: in-process call failed with {res.name}")
            continue
        code, verdicts, value, graph = res
        if code != 0 or verdicts != (value, graph) or value != graph:
            errors.append(f"op {i}: cli.main {code} {verdicts}, engine {value}, oracle {graph}")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="perf_counter() of the parent just before it started this process")
    ap.add_argument("--spans", default=None, help="where the trace mode writes its spans")
    args = ap.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = WORKLOADS[spec["workload"]](spec, Path(args.inputs).parent / "files")
    if args.mode == "trace":
        tracer = Tracer()
        wl.setup(tracer.call)
        out = traced(wl, args.seconds, tracer, Path(args.spans))
    else:
        wl.setup()
        setup_s = perf_counter() - args.spawned_at
        if args.mode == "setup":
            out = {"setup_s": setup_s}
        else:
            out = measure(wl, args.seconds)
            out["setup_s"] = setup_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
