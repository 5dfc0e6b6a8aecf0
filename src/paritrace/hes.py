"""Hierarchical equation systems and their nested-fixpoint solution.

A system is an *ordered* list of mu/nu-signed monotone equations over finite
lattices.  The solver follows the textbook intermediate-solution scheme: the
i-th equation is solved by an extremal fixpoint of its body with all lower
equations re-solved at every iterate, so the order and signs of equations
matter (permuting adjacent equations with different signs can change the
solution -- there is a pinned regression test for that).

Bodies are opaque callables from the full assignment (one value per
equation, in order) to an element of the equation's lattice; nothing here is
symbolic except the small standalone text format at the bottom.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .lattice import (
    MU,
    NU,
    FiniteLattice,
    IterationBudgetError,
    MonotonicityError,
    PowersetLattice,
    default_iteration_budget,
)

__all__ = [
    "Equation",
    "HierEqSystem",
    "Solution",
    "solve",
    "intermediate",
    "parse_hes_text",
    "HesFormatError",
]


@dataclass(frozen=True)
class Equation:
    """One signed equation ``var =sign body`` over ``lattice``.

    ``body`` receives the full assignment tuple (values for *all* equations,
    in system order) and must be monotone in every coordinate.
    """

    var: str
    lattice: FiniteLattice
    sign: str
    body: Callable[[tuple], Any]

    def __post_init__(self):
        if self.sign not in (MU, NU):
            raise ValueError(f"equation sign must be 'mu' or 'nu', got {self.sign!r}")


class HierEqSystem:
    """An ordered list of equations; order is significant."""

    def __init__(self, equations: Sequence[Equation]):
        equations = tuple(equations)
        names = [eq.var for eq in equations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        if not equations:
            raise ValueError("a system needs at least one equation")
        self.equations = equations

    def __len__(self) -> int:
        return len(self.equations)

    def with_signs(self, signs: Sequence[str]) -> "HierEqSystem":
        """Copy of the system with replaced signs (used by mutation testing)."""
        if len(signs) != len(self.equations):
            raise ValueError("sign list length mismatch")
        return HierEqSystem(
            [
                Equation(eq.var, eq.lattice, s, eq.body)
                for eq, s in zip(self.equations, signs)
            ]
        )


@dataclass
class Solution:
    """Solved assignment plus per-equation iteration statistics.

    ``iterations[i]`` is the total number of strict Kleene steps spent on
    equation ``i`` across all inner re-solves; ``body_evals`` counts body
    evaluations.  Both are deterministic for identical inputs.
    """

    assignment: tuple
    iterations: tuple[int, ...]
    body_evals: int
    variables: tuple[str, ...]

    def __getitem__(self, var: str) -> Any:
        return self.assignment[self.variables.index(var)]


class _Solver:
    """Implements the mutually recursive intermediate solutions.

    ``prefix(i, args)`` returns the tuple of intermediate values of
    variables 1..i given fixed outer values ``args`` for variables i+1..m.
    Two performance measures keep repeated inner solves tractable:

    * results are memoised per (level, outer arguments);
    * an inner fixpoint is warm-started from the previous solution at the
      same level whenever the outer arguments moved in the direction that
      makes the old solution a sound starting point (monotone fixpoints move
      the same way their parameters do).
    """

    def __init__(self, hes: HierEqSystem, budget: int | None, warm_start: bool = True):
        self.hes = hes
        self.budget = budget if budget is not None else default_iteration_budget()
        self.warm_start = warm_start
        self.memo: dict[tuple[int, tuple], tuple] = {}
        self.warm: dict[int, tuple[tuple, Any]] = {}
        self.steps = [0] * len(hes)
        self.body_evals = 0

    def _args_leq(self, i: int, a: tuple, b: tuple) -> bool:
        lats = [eq.lattice for eq in self.hes.equations[i:]]
        return all(lat.leq(x, y) for lat, x, y in zip(lats, a, b))

    def prefix(self, i: int, args: tuple) -> tuple:
        if i == 0:
            return ()
        key = (i, args)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        eq = self.hes.equations[i - 1]
        lat = eq.lattice
        ascending = eq.sign == MU
        start = lat.bottom if ascending else lat.top
        prev = self.warm.get(i) if self.warm_start else None
        if prev is not None:
            pargs, pval = prev
            if ascending and self._args_leq(i, pargs, args):
                start = pval
            elif not ascending and self._args_leq(i, args, pargs):
                start = pval
        u = start
        run_steps = 0
        while True:
            lower = self.prefix(i - 1, (u,) + args)
            new = eq.body(lower + (u,) + args)
            self.body_evals += 1
            if self.body_evals > self.budget:
                raise IterationBudgetError(
                    f"solve exceeded body-evaluation budget {self.budget}"
                )
            if new == u:
                break
            ok = lat.leq(u, new) if ascending else lat.leq(new, u)
            if not ok:
                raise MonotonicityError(
                    f"equation {eq.var!r}: {eq.sign}-iteration moved against "
                    f"the chain (non-monotone body)"
                )
            u = new
            run_steps += 1
            if run_steps > lat.height():
                # impossible for a strict chain in a finite lattice
                raise IterationBudgetError(
                    f"equation {eq.var!r}: chain longer than lattice height"
                )
        self.steps[i - 1] += run_steps
        self.warm[i] = (args, u)
        lower = self.prefix(i - 1, (u,) + args)
        result = lower + (u,)
        self.memo[key] = result
        return result


def solve(
    hes: HierEqSystem,
    *,
    budget: int | None = None,
    check: bool = True,
    warm_start: bool = True,
) -> Solution:
    """Solve a system by the nested intermediate-solution procedure.

    With ``check`` (the default) the returned assignment is substituted back
    into every body and must reproduce itself; a failure here means a body
    broke monotonicity in a way the chain checks did not catch.
    ``warm_start=False`` disables the inner-fixpoint warm starts (every inner
    run then iterates from bottom/top); the tests use it to pin the
    optimization against the plain schedule.
    """
    solver = _Solver(hes, budget, warm_start=warm_start)
    assignment = solver.prefix(len(hes), ())
    if check:
        for i, eq in enumerate(hes.equations):
            if eq.body(assignment) != assignment[i]:
                raise MonotonicityError(
                    f"solution fails the fixpoint check at equation {eq.var!r}"
                )
    return Solution(
        assignment=assignment,
        iterations=tuple(solver.steps),
        body_evals=solver.body_evals,
        variables=tuple(eq.var for eq in hes.equations),
    )


def intermediate(hes: HierEqSystem, i: int, j: int, outer_args: Sequence[Any] = ()) -> Any:
    """White-box access to the intermediate solution of variable j at level i.

    ``i`` and ``j`` are 1-based with ``1 <= j <= i <= len(hes)``;
    ``outer_args`` supplies values for variables i+1..m, in order.
    """
    m = len(hes)
    if not (1 <= j <= i <= m):
        raise ValueError(f"need 1 <= j <= i <= {m}, got i={i}, j={j}")
    outer_args = tuple(outer_args)
    if len(outer_args) != m - i:
        raise ValueError(f"expected {m - i} outer arguments, got {len(outer_args)}")
    solver = _Solver(hes, None)
    return solver.prefix(i, outer_args)[j - 1]


# ---------------------------------------------------------------------------
# Standalone text format (CLI `solve-hes`)
# ---------------------------------------------------------------------------

class HesFormatError(Exception):
    """Malformed standalone HES text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


_EQ_RE = re.compile(r"^(?P<var>\w+)\s*=(?P<sign>mu|nu)\s*(?P<expr>.+)$")


class _ExprParser:
    """Recursive-descent parser for union/intersection expressions.

    Grammar:  expr := term (('|' | 'u') term)*
              term := atom (('&' | 'n') atom)*
              atom := variable | '{' items '}' | '(' expr ')'
    Unicode cup/cap are accepted as aliases of '|' and '&'.
    """

    def __init__(self, text: str, line: int):
        tokens = re.findall(r"\{[^}]*\}|\(|\)|\||&|∪|∩|\w+", text)
        if re.sub(r"[,\s]+", "", "".join(tokens)) != re.sub(r"[,\s]+", "", text):
            raise HesFormatError(f"unrecognised characters in expression {text!r}", line)
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise HesFormatError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise HesFormatError(f"trailing tokens near {self.peek()!r}", self.line)
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("|", "∪"):
            self.take()
            node = ("union", node, self.term())
        return node

    def term(self):
        node = self.atom()
        while self.peek() in ("&", "∩"):
            self.take()
            node = ("inter", node, self.atom())
        return node

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise HesFormatError("expected ')'", self.line)
            return node
        if tok.startswith("{"):
            items = [s for s in re.split(r"[,\s]+", tok[1:-1]) if s]
            return ("const", tuple(items))
        if tok in (")", "|", "&", "∪", "∩"):
            raise HesFormatError(f"unexpected token {tok!r}", self.line)
        return ("var", tok)


def _eval_expr(node, var_index: Mapping[str, int], lat: PowersetLattice, assign: tuple) -> int:
    kind = node[0]
    if kind == "var":
        return assign[var_index[node[1]]]
    if kind == "const":
        return lat.from_iterable(node[1])
    a = _eval_expr(node[1], var_index, lat, assign)
    b = _eval_expr(node[2], var_index, lat, assign)
    return a | b if kind == "union" else a & b


def parse_hes_text(text: str) -> HierEqSystem:
    """Parse the standalone boolean/powerset HES format.

    One declaration line ``ground: item item ...`` fixes the shared powerset
    lattice; every following non-comment line is ``var =mu|=nu expression``.
    Equation order is the line order and is preserved.
    """
    ground: tuple | None = None
    raw_eqs: list[tuple[str, str, Any, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ground:"):
            if ground is not None:
                raise HesFormatError("duplicate ground declaration", lineno)
            ground = tuple(line[len("ground:"):].split())
            continue
        m = _EQ_RE.match(line)
        if not m:
            raise HesFormatError(f"expected 'var =mu|=nu expr', got {line!r}", lineno)
        node = _ExprParser(m.group("expr"), lineno).parse()
        raw_eqs.append((m.group("var"), m.group("sign"), node, lineno))
    if ground is None:
        raise HesFormatError("missing 'ground:' declaration")
    if not raw_eqs:
        raise HesFormatError("no equations")
    lat = PowersetLattice(ground)
    var_index = {var: i for i, (var, _, _, _) in enumerate(raw_eqs)}
    if len(var_index) != len(raw_eqs):
        raise HesFormatError("duplicate variable on the left-hand side")

    def check_refs(node, lineno):
        if node[0] == "var":
            if node[1] not in var_index:
                raise HesFormatError(f"undeclared variable {node[1]!r}", lineno)
        elif node[0] == "const":
            for item in node[1]:
                if item not in ground:
                    raise HesFormatError(f"unknown ground item {item!r}", lineno)
        else:
            check_refs(node[1], lineno)
            check_refs(node[2], lineno)

    equations = []
    for var, sign, node, lineno in raw_eqs:
        check_refs(node, lineno)
        body = (lambda nd: lambda assign: _eval_expr(nd, var_index, lat, assign))(node)
        equations.append(Equation(var, lat, sign, body))
    return HesPowersetSystem(equations, lat)


class HesPowersetSystem(HierEqSystem):
    """A parsed standalone system; remembers its shared powerset lattice."""

    def __init__(self, equations: Sequence[Equation], lat: PowersetLattice):
        super().__init__(equations)
        self.powerset = lat

    def format_solution(self, sol: Solution) -> str:
        lines = []
        for var, value in zip(sol.variables, sol.assignment):
            items = sorted(self.powerset.to_set(value))
            lines.append(f"{var} = {{{' '.join(items)}}}")
        return "\n".join(lines)
