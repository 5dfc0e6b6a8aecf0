"""Hierarchical equation systems and their nested-fixpoint solution.

A system is an *ordered* list of mu/nu-signed monotone equations over finite
lattices.  The solver follows the textbook intermediate-solution scheme: the
i-th equation is solved by an extremal fixpoint of its body with all lower
equations re-solved at every iterate, so the order and signs of equations
matter (permuting adjacent equations with different signs can change the
solution -- there is a pinned regression test for that).

Bodies are opaque callables from the full assignment (one value per
equation, in order) to an element of the equation's lattice; nothing here is
symbolic except the small standalone text format at the bottom.  During a
solve the assignment is the solver's own working list, valid only for the
duration of the call: a body reads it and must neither keep nor mutate it.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from functools import reduce
from operator import and_, or_
from typing import Any, Mapping, Sequence

from .lattice import (
    MU,
    NU,
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
    "parse_hes_text",
    "HesFormatError",
]


class Equation(namedtuple("Equation", "var lattice sign body")):
    """One signed equation ``var =sign body`` over the FiniteLattice
    ``lattice``.

    ``body`` receives the full assignment (values for *all* equations, in
    system order) as a sequence that is valid only during the call; it must
    not keep or mutate that sequence, and it must be monotone in every
    coordinate.
    """

    __slots__ = ()

    def __new__(cls, var, lattice, sign, body):
        if sign not in (MU, NU):
            raise ValueError(f"equation sign must be 'mu' or 'nu', got {sign!r}")
        return super().__new__(cls, var, lattice, sign, body)


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


class Solution:
    """Solved assignment plus per-equation iteration statistics.

    ``iterations[i]`` is the total number of strict Kleene steps spent on
    equation ``i`` across all inner re-solves; ``body_evals`` counts body
    evaluations.  Both are deterministic for identical inputs.
    ``variables`` names the equations, in system order.
    """

    __slots__ = ("assignment", "iterations", "body_evals", "variables")

    def __init__(self, assignment: tuple, iterations: tuple, body_evals: int, variables: tuple):
        self.assignment = assignment
        self.iterations = iterations
        self.body_evals = body_evals
        self.variables = variables

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self) -> str:
        return f"Solution({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

    def __getitem__(self, var: str) -> Any:
        return self.assignment[self.variables.index(var)]


class _Solver:
    """The nested intermediate-solution scheme as one flat loop.

    Level ``k`` iterates equation ``k`` from bottom (mu) or top (nu) while
    the levels above hold their current iterates, so every body is
    evaluated on ``vals``: the current iterate of each level followed by
    the fixed outer arguments, one list updated in place and handed to the
    bodies as it is, so an evaluation copies nothing.  A strict step at
    level ``k`` restarts levels ``k-1 .. 0``, innermost last, and
    evaluation resumes at level 0; a stable level adds its steps to the
    counters and evaluation moves up.  This is the schedule of the textbook
    recursion, in which each iterate of level ``k`` calls level ``k-1`` and
    then evaluates its own body: a restart is that call and moving up is its
    return.  So the solution and the counters are the recursion's, but no
    call stack grows with the number of equations, which is bounded only by
    the evaluation budget.

    A restarted level starts from its last solution when its outer
    arguments moved the way that keeps that start sound (monotone fixpoints
    move with their parameters): up for mu, down for nu.  When level ``k``
    steps, each level ``j`` below it has just finished a run, and its outer
    arguments differ from that run's only at levels ``j+1 .. k``: level
    ``k`` moved to its new iterate, and each restarted level from its last
    solution to its new start.  So ``up`` and ``down`` are carried down the
    restart with one comparison per level.  The solver keeps no table of
    solved levels, since two runs of one level never see the same outer
    arguments; a body may still keep the last image of each input it reads
    (``trace.make_phi_body`` does), as most of the assignment is the same
    object from one evaluation to the next.
    """

    def __init__(self, hes: HierEqSystem, budget: int | None, warm_start: bool = True):
        self.equations = hes.equations
        self.lattices = tuple(eq.lattice for eq in hes.equations)
        self.heights = tuple(lat.height() for lat in self.lattices)
        self.ascending = tuple(eq.sign == MU for eq in hes.equations)
        self.starts = tuple(
            lat.bottom if asc else lat.top for lat, asc in zip(self.lattices, self.ascending)
        )
        self.budget = budget if budget is not None else default_iteration_budget()
        self.warm_start = warm_start
        self.steps = [0] * len(hes)
        self.body_evals = 0

    def prefix(self, top: int, args: tuple) -> tuple:
        """Intermediate values of levels ``0 .. top-1`` given the values
        ``args`` of the levels above."""
        vals = list(self.starts[:top]) + list(args)
        warm = [None] * top  # each level's value at the end of its last run
        run = [0] * top  # strict steps of each level's current run
        k = restart = 0
        up = down = False
        while True:
            for j in range(restart - 1, -1, -1):
                if j + 1 < restart:
                    p, v = warm[j + 1], vals[j + 1]
                    if p is not v:
                        lat = self.lattices[j + 1]
                        up = up and lat.leq(p, v)
                        down = down and lat.leq(v, p)
                warm_ok = self.warm_start and (up if self.ascending[j] else down)
                vals[j] = warm[j] if warm_ok else self.starts[j]
                run[j] = 0
            eq = self.equations[k]
            u = vals[k]
            new = eq.body(vals)
            self.body_evals += 1
            if self.body_evals > self.budget:
                raise IterationBudgetError(
                    f"solve exceeded body-evaluation budget {self.budget}"
                )
            if new == u:
                self.steps[k] += run[k]
                warm[k] = u
                restart, k = 0, k + 1
                if k == top:
                    return tuple(vals[:top])
                continue
            # new != u, so by antisymmetry at most one direction holds: check
            # only the level's own, up for mu and down for nu
            lat = self.lattices[k]
            up = self.ascending[k]
            down = not up
            if not (lat.leq(u, new) if up else lat.leq(new, u)):
                raise MonotonicityError(
                    f"equation {eq.var!r}: {eq.sign}-iteration moved against "
                    f"the chain (non-monotone body)"
                )
            vals[k] = new
            run[k] += 1
            if run[k] > self.heights[k]:
                # impossible for a strict chain in a finite lattice
                raise IterationBudgetError(
                    f"equation {eq.var!r}: chain longer than lattice height"
                )
            restart, k = k, 0


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


# ---------------------------------------------------------------------------
# Standalone text format (CLI `solve-hes`)
# ---------------------------------------------------------------------------

class HesFormatError(Exception):
    """Malformed standalone HES text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


#: Deepest parenthesis nesting the text format accepts; it keeps parsing and
#: evaluation well inside Python's recursion limit.
MAX_NESTING = 100

_EQ_RE = re.compile(r"^(?P<var>\w+)\s*=(?P<sign>mu|nu)\s*(?P<expr>.+)$")


class _ExprParser:
    """Recursive-descent parser for union/intersection expressions.

    Grammar:  expr := term (('|' | 'u') term)*
              term := atom (('&' | 'n') atom)*
              atom := variable | '{' items '}' | '(' expr ')'
    Unicode cup/cap are accepted as aliases of '|' and '&'.  A chain of one
    operator becomes one n-ary node, so only parentheses nest, and at most
    MAX_NESTING deep.
    """

    def __init__(self, text: str, line: int):
        tokens = re.findall(r"\{[^}]*\}|\(|\)|\||&|∪|∩|\w+", text)
        if re.sub(r"[,\s]+", "", "".join(tokens)) != re.sub(r"[,\s]+", "", text):
            raise HesFormatError(f"unrecognised characters in expression {text!r}", line)
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.depth = 0

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
        terms = [self.term()]
        while self.peek() in ("|", "∪"):
            self.take()
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else ("union", *terms)

    def term(self):
        atoms = [self.atom()]
        while self.peek() in ("&", "∩"):
            self.take()
            atoms.append(self.atom())
        return atoms[0] if len(atoms) == 1 else ("inter", *atoms)

    def atom(self):
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise HesFormatError(f"parentheses nested deeper than {MAX_NESTING}", self.line)
            node = self.expr()
            if self.take() != ")":
                raise HesFormatError("expected ')'", self.line)
            self.depth -= 1
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
    parts = (_eval_expr(child, var_index, lat, assign) for child in node[1:])
    return reduce(or_ if kind == "union" else and_, parts)


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
            dups = sorted(g for g, n in Counter(ground).items() if n > 1)
            if dups:
                raise HesFormatError(f"duplicate ground items {dups}", lineno)
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
            for child in node[1:]:
                check_refs(child, lineno)

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
