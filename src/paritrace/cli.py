"""Command-line front end.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification disagreement or failing campaign, 2 usage/format errors
and exceeded limits (size caps, the iteration budget).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import hes as hes_mod
from . import oracle as oracle_mod
from . import trace as trace_mod
from .automata import (
    AutomatonError,
    BuchiWordAutomaton,
    ParityTreeAutomaton,
    ParityWordAutomaton,
    DeterministicExceptionAutomaton,
    ParseError,
    buchi_to_parity,
    parse,
)
from .lattice import IterationBudgetError, LatticeTooLargeError
from .omega_input import (
    DecoratedLassoWord,
    DecorationError,
    InputError,
    check_decorated_invariant,
    delst,
    flatten_word,
    format_lasso,
    parse_decorated_lasso,
    parse_lasso,
    parse_tree,
    serialize_tree,
)

USAGE_EXIT = 2
DISAGREE_EXIT = 1


class UnreadableFileError(Exception):
    """An input file that cannot be opened or is not UTF-8 text."""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UnreadableFileError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise UnreadableFileError(
            f"cannot read {path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})"
        ) from None


#: Automaton classes the commands accept, with the name errors give them.
_KIND_NAMES = {
    ParityWordAutomaton: "word-parity",
    ParityTreeAutomaton: "tree-parity",
    DeterministicExceptionAutomaton: "det-exc",
}


def _load_automaton(path: str, cls: type):
    """Parse the automaton file at ``path`` and require an instance of
    ``cls``; a Büchi automaton counts as its word-parity encoding."""
    aut = parse(_read(path))
    if isinstance(aut, BuchiWordAutomaton) and cls is ParityWordAutomaton:
        return buchi_to_parity(aut)
    if not isinstance(aut, cls):
        raise ParseError(f"{path}: expected a {_KIND_NAMES[cls]} automaton, got {aut.kind}")
    return aut


def _read_decorated(spec: str):
    """A decorated lasso given inline, else a decorated tree given inline
    (multi-line text) or as a file path."""
    try:
        return parse_decorated_lasso(spec)
    except ParseError:
        return parse_tree(spec if "\n" in spec else _read(spec))


def _emit(args, text_value: str, json_doc: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(json_doc, sort_keys=True))
    else:
        print(text_value)


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_solve_hes(args) -> int:
    system = hes_mod.parse_hes_text(_read(args.file))
    sol = hes_mod.solve(system)
    doc = {
        "schema_version": 1,
        "solution": {
            var: sorted(system.powerset.to_set(val))
            for var, val in zip(sol.variables, sol.assignment)
        },
        "iterations": list(sol.iterations),
    }
    _emit(args, system.format_solution(sol), doc)
    return 0


def _engine_vs_oracle(args, run_engine, run_oracle) -> int:
    """Decide with the engine, the oracle (``--oracle``) or both
    (``--both``); ``run_engine`` and ``run_oracle`` compute the verdicts."""
    engine = None if args.oracle else run_engine()
    graph = run_oracle() if (args.oracle or args.both) else None
    verdict = graph.value if args.oracle else engine.value
    doc = {"schema_version": 1, "verdict": verdict}
    if engine is not None:
        doc["stats"] = engine.stats.to_json()
    if args.both:
        doc["oracle"] = graph.value
        if engine.value != graph.value:
            _emit(args, f"disagree: engine={_bool_str(engine.value)} oracle={_bool_str(graph.value)}", doc)
            return DISAGREE_EXIT
    _emit(args, _bool_str(verdict), doc)
    return 0


def _cmd_member(args) -> int:
    aut = _load_automaton(args.automaton, ParityWordAutomaton)
    w = parse_lasso(args.lasso)
    return _engine_vs_oracle(
        args,
        lambda: trace_mod.parity_trace_membership(aut, args.state, w),
        lambda: oracle_mod.lasso_acceptance(aut, args.state, w),
    )


def _cmd_dtr_member(args) -> int:
    aut = _load_automaton(args.automaton, ParityWordAutomaton)
    xi = parse_decorated_lasso(args.decorated)
    verdict = trace_mod.decorated_trace_membership(aut, args.state, xi)
    _emit(args, _bool_str(verdict.value), verdict.to_json())
    return 0


def _cmd_tree_member(args) -> int:
    aut = _load_automaton(args.automaton, ParityTreeAutomaton)
    t = parse_tree(_read(args.tree))
    return _engine_vs_oracle(
        args,
        lambda: trace_mod.tree_language_membership(aut, args.state, t),
        lambda: oracle_mod.tree_membership_oracle(aut, args.state, t),
    )


def _cmd_witness(args) -> int:
    aut = _load_automaton(args.automaton, ParityWordAutomaton)
    w = parse_lasso(args.lasso)
    report = trace_mod.flattening_theorem_check(aut, args.state, w)
    if not report.agree:
        _emit(args, "disagree", report.to_json())
        return DISAGREE_EXIT
    if report.witness is None:
        _emit(args, "none", report.to_json())
    else:
        _emit(args, format_lasso(report.witness), report.to_json())
    return 0


def _cmd_finite_traces(args) -> int:
    aut = _load_automaton(args.automaton, ParityWordAutomaton)
    words, stats = trace_mod._finite_traces(aut, args.state, args.max_len)
    words = sorted(words, key=lambda w: (len(w), w))
    rendered = ["" if not w else ",".join(w) if any(len(s) > 1 for s in w) else "".join(w) for w in words]
    doc = {"schema_version": 1, "words": rendered, "stats": stats.to_json()}
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for r in rendered:
            print(r if r else "<epsilon>")
    return 0


def _cmd_det_run(args) -> int:
    aut = _load_automaton(args.automaton, DeterministicExceptionAutomaton)
    behavior = trace_mod.det_exception_behavior(aut, args.state)
    if behavior is trace_mod.BOTTOM:
        _emit(args, "bottom", {"schema_version": 1, "behavior": None})
    elif hasattr(behavior, "cycle"):
        _emit(args, format_lasso(behavior), {"schema_version": 1, "behavior": format_lasso(behavior)})
    else:
        text = serialize_tree(behavior)
        _emit(args, text.rstrip("\n"), {"schema_version": 1, "behavior": text})
    return 0


def _cmd_flatten(args) -> int:
    xi = _read_decorated(args.input)
    if isinstance(xi, DecoratedLassoWord):
        out = format_lasso(flatten_word(xi))
        _emit(args, out, {"schema_version": 1, "flattened": out})
    else:
        out = serialize_tree(delst(xi))
        _emit(args, out.rstrip("\n"), {"schema_version": 1, "flattened": out})
    return 0


def _cmd_check_decorated(args) -> int:
    xi = _read_decorated(args.input)
    problems = check_decorated_invariant(xi, args.grade)
    doc = {"schema_version": 1, "ok": not problems, "problems": problems}
    if problems:
        _emit(args, "violation: " + "; ".join(problems), doc)
        return DISAGREE_EXIT
    _emit(args, "ok", doc)
    return 0


def _cmd_fuzz(args) -> int:
    from dataclasses import replace

    from . import harness as harness_mod

    cfg = harness_mod.CampaignConfig()
    if args.config:
        try:
            doc = json.loads(_read(args.config))
        except (json.JSONDecodeError, RecursionError) as exc:
            print(f"error: {args.config}: not valid JSON: {exc}", file=sys.stderr)
            return USAGE_EXIT
        try:
            cfg = harness_mod.CampaignConfig.from_json(doc)
        except harness_mod.ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_EXIT
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    report = harness_mod.campaign(cfg, args.seed)
    _emit(args, report.summary(), report.to_json())
    return 0 if report.ok else DISAGREE_EXIT


def _cmd_pinned(args) -> int:
    from . import harness as harness_mod

    report = harness_mod.pinned_suite()
    _emit(args, report.summary(), report.to_json())
    return 0 if report.ok else DISAGREE_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paritrace",
        description="Fixpoint membership engine for parity/Buchi word and tree automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(fn=fn)
        return p

    p = add("solve-hes", _cmd_solve_hes, "solve a standalone powerset equation system")
    p.add_argument("file")

    p = add("member", _cmd_member, "lasso membership in the parity trace semantics")
    p.add_argument("automaton")
    p.add_argument("--state", required=True)
    p.add_argument("--lasso", required=True, help="stem;cycle, e.g. 'b;ab'")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--oracle", action="store_true", help="use the graph oracle instead")
    group.add_argument("--both", action="store_true", help="run both; exit 1 on disagreement")

    p = add("dtr-member", _cmd_dtr_member, "decorated lasso membership")
    p.add_argument("automaton")
    p.add_argument("--state", required=True)
    p.add_argument("--decorated", required=True, help="e.g. 'b:1;a:2,b:1'")

    p = add("tree-member", _cmd_tree_member, "regular tree membership")
    p.add_argument("automaton")
    p.add_argument("tree")
    p.add_argument("--state", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--oracle", action="store_true")
    group.add_argument("--both", action="store_true")

    p = add("witness", _cmd_witness, "decorated witness for a lasso, re-verified")
    p.add_argument("automaton")
    p.add_argument("--state", required=True)
    p.add_argument("--lasso", required=True)

    p = add("finite-traces", _cmd_finite_traces, "terminating finite words up to a length")
    p.add_argument("automaton")
    p.add_argument("--state", required=True)
    p.add_argument("--max-len", type=_non_negative_int, required=True)

    p = add("det-run", _cmd_det_run, "decorated behavior of a deterministic automaton")
    p.add_argument("automaton")
    p.add_argument("--state", required=True)

    p = add("flatten", _cmd_flatten, "drop decorations from a decorated input")
    p.add_argument("input", help="decorated lasso text, or a decorated tree file")

    p = add("check-decorated", _cmd_check_decorated, "check the decorated parity law")
    p.add_argument("input", help="decorated lasso text, or a decorated tree file")
    p.add_argument("--grade", type=int, default=None)

    p = add("fuzz", _cmd_fuzz, "run a differential campaign")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_non_negative_int, default=None)
    p.add_argument("--config", default=None, help="JSON campaign config file")

    add("pinned", _cmd_pinned, "run the pinned regression suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        ParseError,
        InputError,
        hes_mod.HesFormatError,
        UnreadableFileError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (
        AutomatonError,
        DecorationError,
        trace_mod.AlphabetMismatchError,
        trace_mod.GradeMismatchError,
        # exceeded limits; MonotonicityError stays uncaught: it is an engine bug
        LatticeTooLargeError,
        IterationBudgetError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
