"""Alternate whole benchmark rounds of two source trees in one interpreter.

    python3 tools/ab_rounds.py SRC_A SRC_B WORKLOAD [--seed N] [--rounds N]

``SRC_A`` and ``SRC_B`` are directories that each hold a ``paritrace``
package (a checkout's ``src``).  Each package is loaded under its own
module name, so both sides share one process, one heap and one machine
state; ``benchmarks/workloads.py`` builds the workload's inputs (read
only), and each side parses them with its own parsers.  A round is every
op of the workload once, as ``benchmarks/worker.py`` runs it, except that
a ``tree-cli`` op is the in-process engine and oracle calls rather than a
cold CLI process.  Rounds alternate A B, B A, A B, ... after one untimed
warm-up round per side, whose outputs must agree between the sides, and
each timed round starts after a garbage collection.  An engine call's
output is its whole ``MembershipVerdict``, the value and the ``SolveStats``
counters, so the warm-up also checks that both trees count the same
iterations, body evaluations, positions and widths.  An oracle call's
output is its whole ``OracleVerdict``, the value and the witness run; a
``campaign`` op's flattening check is compared as its whole report
(``to_json``), witness and checks included.  Before it, each
side serialises every automaton it parsed, and the two texts must be
equal, so a parser change that alters what is parsed fails even where no
verdict shows it.

Prints each side's median and quartiles of the round time in ms, how many
rounds each side won, and the median change from A to B.  Standard
library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import workloads  # noqa: E402


def load(src: Path, name: str) -> dict:
    """The ``paritrace`` package under ``src``, imported as ``name``, and
    the submodules a round calls."""
    pkg = src / "paritrace"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}") for m in ("automata", "omega_input", "oracle", "trace")}


def make_round(mods: dict, workload: str, spec: dict):
    """Parse ``spec`` with one side's modules; return a function that runs
    one round and returns its outputs, and each automaton as that side
    serialises what it parsed."""
    automata, omega_input = mods["automata"], mods["omega_input"]
    oracle, trace = mods["oracle"], mods["trace"]
    auts = [automata.parse(text) for text in spec["automata"]]
    parsed = [automata.serialize(aut) for aut in auts]
    if workload == "tree-cli":
        trees = [omega_input.parse_tree(text) for text in spec["trees"]]
        ops = [(auts[op["aut"]], op["state"], trees[op["tree"]]) for op in spec["ops"]]

        def one(aut, x, t):
            verdict = oracle.tree_membership_oracle(aut, x, t)
            # a run tree equals only a run tree of its own class, and each
            # side loads its own classes: compare its root and nodes
            run = None if verdict.run is None else (verdict.run.root, verdict.run.nodes)
            return trace.tree_language_membership(aut, x, t), verdict.value, run

    else:
        ops = [(auts[op["aut"]], op["state"], omega_input.parse_lasso(op["lasso"])) for op in spec["ops"]]
        if workload == "campaign":

            def one(aut, x, w):
                engine = trace.parity_trace_membership(aut, x, w)
                graph = oracle.lasso_acceptance(aut, x, w)
                report = trace.flattening_theorem_check(aut, x, w)
                return engine, graph, report.to_json()

        else:

            def one(aut, x, w):
                return trace.parity_trace_membership(aut, x, w)

    return (lambda: [one(*op) for op in ops]), parsed


def run(src_a: Path, src_b: Path, workload: str, seed: int, rounds: int, out=print) -> dict:
    spec = workloads.make_inputs(workload, seed)
    round_a, parsed_a = make_round(load(src_a, "paritrace_ab_a"), workload, spec)
    round_b, parsed_b = make_round(load(src_b, "paritrace_ab_b"), workload, spec)
    for i, (a, b) in enumerate(zip(parsed_a, parsed_b)):
        if a != b:
            raise SystemExit(f"error: the two trees parse automaton {i} differently: {a!r} != {b!r}")
    sides = {"A": round_a, "B": round_b}
    outputs = sides["A"](), sides["B"]()
    for i, (a, b) in enumerate(zip(*outputs)):
        if a != b:
            raise SystemExit(f"error: the two trees give different outputs at op {i}: {a} != {b}")
    times: dict[str, list[float]] = {"A": [], "B": []}
    for r in range(rounds):
        for side in ("AB" if r % 2 == 0 else "BA"):
            gc.collect()
            t0 = perf_counter()
            sides[side]()
            times[side].append(perf_counter() - t0)
    won_b = sum(b < a for a, b in zip(times["A"], times["B"]))
    won_a = sum(a < b for a, b in zip(times["A"], times["B"]))
    summary = {"workload": workload, "seed": seed, "rounds": rounds, "won": {"A": won_a, "B": won_b}}
    out(f"{workload} seed {seed}, rounds per side: {rounds} (round time, ms)")
    for side, src in (("A", src_a), ("B", src_b)):
        ms = [1e3 * t for t in times[side]]
        q1, med, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        summary[side] = {"src": str(src), "median_ms": med, "q1_ms": q1, "q3_ms": q3, "rounds_ms": ms}
        out(f"  {side} {src}: median {med:.1f} [{q1:.1f}-{q3:.1f}], won {summary['won'][side]}")
    change = summary["B"]["median_ms"] / summary["A"]["median_ms"] - 1
    summary["change_pct"] = 100 * change
    out(f"  B against A: {100 * change:+.1f} % median round time")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    for src in (args.src_a, args.src_b):
        if not (src / "paritrace" / "__init__.py").is_file():
            parser.error(f"{src} holds no paritrace package")
    run(args.src_a.resolve(), args.src_b.resolve(), args.workload, args.seed, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
