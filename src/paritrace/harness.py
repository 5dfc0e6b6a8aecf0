"""Randomized differential campaigns and the pinned regression suite.

Each campaign trial generates fresh automata and inputs from a
seed-deterministic stream and evaluates a fixed list of cross-checking
properties (engine vs oracle, encodings vs each other, representation
invariance, witness round-trips).  Failures are shrunk greedily to small
counterexamples; reports serialise to stable JSON.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .automata import (
    _LETTERS,
    DetGenParams,
    ParityWordAutomaton,
    TreeGenParams,
    WordGenParams,
    buchi_to_parity,
    random_buchi_automaton,
    random_det_exception_automaton,
    random_tree_automaton,
    random_word_automaton,
    serialize,
)
from .graphutil import cycle_with_max_parity, enumerate_simple_cycles
from .omega_input import (
    DecoratedLassoWord,
    DecoratedRegularTreeRep,
    LassoWord,
    check_decorated_invariant,
    decorate_run,
    delst,
    normalize,
    random_lasso,
    random_regular_tree,
    serialize_tree,
    tree_reps_bisimilar,
    unroll,
)
from .oracle import (
    MAX_FINITE_LEN,
    finite_run_enumeration,
    lasso_acceptance,
    tree_membership_oracle,
)
from .trace import (
    BOTTOM,
    MAX_ENUM_WORDS,
    _compact_system,
    _holds,
    _solve,
    buchi_trace_membership,
    decorated_trace_membership,
    det_exception_behavior,
    finite_trace_enum,
    flattening_theorem_check,
    parity_trace_membership,
    tree_language_membership,
)

__all__ = [
    "CampaignConfig",
    "ConfigError",
    "PropertyResult",
    "Report",
    "PROPERTIES",
    "campaign",
    "pinned_suite",
    "intro_automaton",
    "appendix_automaton",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Bounds and switches for one campaign.

    ``mutation`` deliberately breaks a pipeline ("flip-signs" solves the
    compacted system of ordinary membership with swapped mu/nu annotations)
    so that the harness can demonstrate it actually detects bugs.
    """

    trials: int = 100
    max_states: int = 6
    max_letters: int = 3
    max_two_n: int = 6
    max_stem: int = 2
    max_cycle: int = 3
    tree_states: int = 5
    tree_symbols: int = 3
    tree_arity: int = 2
    tree_two_n: int = 4
    tree_nodes: int = 4
    finite_maxlen: int = 4
    mutation: str | None = None
    properties: tuple[str, ...] = ()
    max_counterexamples: int = 3

    @classmethod
    def from_json(cls, doc) -> "CampaignConfig":
        """Build a config from a decoded JSON object; raise ConfigError for
        anything else, unknown keys, and values of the wrong type or range."""
        if not isinstance(doc, dict):
            raise ConfigError(f"campaign config must be a JSON object, got {type(doc).__name__}")
        bad = set(doc) - set(cls.__dataclass_fields__)
        if bad:
            raise ConfigError(f"unknown campaign config keys: {sorted(bad)}")
        for key, value in doc.items():
            if key == "mutation":
                if value not in (None, *MUTATIONS):
                    raise ConfigError(f"mutation must be null or one of {list(MUTATIONS)}, got {value!r}")
            elif key == "properties":
                if not isinstance(value, list) or any(p not in PROPERTIES for p in value):
                    raise ConfigError(f"properties must be a list of names from {list(PROPERTIES)}, got {value!r}")
            elif type(value) is not int or value < _CONFIG_MINIMA.get(key, 0):
                raise ConfigError(
                    f"{key} must be an integer >= {_CONFIG_MINIMA.get(key, 0)}, got {value!r}"
                )
            elif key == "finite_maxlen" and value > MAX_FINITE_LEN:
                raise ConfigError(f"finite_maxlen must be <= {MAX_FINITE_LEN}, got {value}")
            elif key == "max_letters" and value > len(_LETTERS):
                raise ConfigError(f"max_letters must be <= {len(_LETTERS)}, got {value}")
        if "properties" in doc:
            doc = dict(doc, properties=tuple(doc["properties"]))
        cfg = cls(**doc)
        if "finite-traces" in (cfg.properties or PROPERTIES):
            words = sum(cfg.max_letters**i for i in range(cfg.finite_maxlen + 1))
            if words > MAX_ENUM_WORDS:
                raise ConfigError(
                    f"finite-traces over {cfg.max_letters} letters up to length {cfg.finite_maxlen} "
                    f"enumerates {words} words, above the cap of {MAX_ENUM_WORDS}"
                )
        return cfg


class ConfigError(ValueError):
    """A campaign config that is not an object of known keys with values of
    the right type and range."""


MUTATIONS = ("flip-signs",)

# smallest bounds the trial generators can draw from: sizes from 1..bound,
# 2n from 2, 4, ..., bound
_CONFIG_MINIMA = {
    "max_states": 1,
    "max_letters": 1,
    "max_two_n": 2,
    "max_cycle": 1,
    "tree_states": 1,
    "tree_symbols": 1,
    "tree_two_n": 2,
    "tree_nodes": 1,
}


@dataclass
class PropertyResult:
    name: str
    passed: int = 0
    failed: int = 0
    counterexamples: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "counterexamples": list(self.counterexamples),
        }


@dataclass
class Report:
    seed: int
    trials: int
    results: list[PropertyResult]

    @property
    def ok(self) -> bool:
        return all(r.failed == 0 for r in self.results)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "properties": [r.to_json() for r in self.results],
        }

    def summary(self) -> str:
        lines = [f"campaign: seed={self.seed} trials={self.trials} ok={self.ok}"]
        for r in self.results:
            status = "ok " if r.failed == 0 else "FAIL"
            lines.append(f"  [{status}] {r.name}: {r.passed} passed, {r.failed} failed")
            for ce in r.counterexamples:
                lines.append(f"         counterexample: {ce}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Pinned automata (the two worked examples every suite runs against)
# ---------------------------------------------------------------------------

def intro_automaton() -> ParityWordAutomaton:
    """Two-state automaton accepting words with infinitely many b (from x)."""
    return ParityWordAutomaton(
        states=("x", "y"),
        alphabet=("a", "b"),
        transitions=[("x", "a", "x"), ("x", "b", "y"), ("y", "a", "x"), ("y", "b", "y")],
        priorities={"x": 1, "y": 2},
    )


def appendix_automaton() -> ParityWordAutomaton:
    """Three-state, three-priority automaton: infinitely many b, finitely many c."""
    return ParityWordAutomaton(
        states=("x", "y", "z"),
        alphabet=("a", "b", "c"),
        transitions=[
            ("x", "a", "x"),
            ("x", "b", "y"),
            ("y", "a", "x"),
            ("y", "b", "y"),
            ("y", "c", "z"),
            ("z", "b", "y"),
            ("z", "c", "z"),
        ],
        priorities={"x": 1, "y": 2, "z": 3},
    )


# ---------------------------------------------------------------------------
# Trial generation
# ---------------------------------------------------------------------------

@dataclass
class _WordTrial:
    aut: ParityWordAutomaton
    state: str
    lasso: LassoWord

    def describe(self) -> str:
        return (
            f"state={self.state} lasso={self.lasso} automaton=\n"
            + serialize(self.aut)
        )


def _trial_rng(seed: int, index: int, salt: str) -> random.Random:
    return random.Random(f"{seed}:{index}:{salt}")


def _gen_word_trial(cfg: CampaignConfig, seed: int, index: int) -> _WordTrial:
    rng = _trial_rng(seed, index, "word")
    params = WordGenParams(
        n_states=rng.randint(1, cfg.max_states),
        n_letters=rng.randint(1, cfg.max_letters),
        two_n=2 * rng.randint(1, cfg.max_two_n // 2),
        density=rng.uniform(0.1, 0.6),
        final_prob=0.3,
    )
    aut = random_word_automaton(params, rng.random())
    state = rng.choice(aut.states)
    lasso = random_lasso(aut.alphabet, cfg.max_stem, cfg.max_cycle, rng)
    return _WordTrial(aut, state, lasso)


# ---------------------------------------------------------------------------
# Properties (each returns None when satisfied, else a description string)
# ---------------------------------------------------------------------------

def _membership_for(cfg: CampaignConfig, aut, state, lasso) -> bool:
    """Ordinary membership, optionally sabotaged by the configured mutation."""
    if cfg.mutation == "flip-signs":
        system = _compact_system(aut, state, lasso, False)
        system.signs = ["nu" if sign == "mu" else "mu" for sign in system.signs]
        return _holds(system, _solve(system)[0], state)
    return parity_trace_membership(aut, state, lasso).value


def _prop_engine_vs_oracle(cfg: CampaignConfig, trial: _WordTrial) -> str | None:
    engine = _membership_for(cfg, trial.aut, trial.state, trial.lasso)
    graph = lasso_acceptance(trial.aut, trial.state, trial.lasso).value
    if engine != graph:
        return f"engine={engine} oracle={graph} on {trial.describe()}"
    return None


def _prop_buchi_as_parity(cfg: CampaignConfig, seed: int, index: int) -> str | None:
    rng = _trial_rng(seed, index, "buchi")
    params = WordGenParams(
        n_states=rng.randint(1, cfg.max_states),
        n_letters=rng.randint(1, cfg.max_letters),
        density=rng.uniform(0.1, 0.6),
    )
    baut = random_buchi_automaton(params, rng.random())
    state = rng.choice(baut.states)
    lasso = random_lasso(baut.alphabet, cfg.max_stem, cfg.max_cycle, rng)
    via_buchi = buchi_trace_membership(baut, state, lasso).value
    via_oracle = lasso_acceptance(buchi_to_parity(baut), state, lasso).value
    if via_buchi != via_oracle:
        return (
            f"buchi={via_buchi} oracle={via_oracle} state={state} lasso={lasso} on\n"
            + serialize(baut)
        )
    return None


def _prop_flattening(trial: _WordTrial) -> str | None:
    report = flattening_theorem_check(trial.aut, trial.state, trial.lasso)
    if not report.agree:
        return f"flattening check disagrees ({report.to_json()}) on {trial.describe()}"
    return None


def _decorated_realizable(aut: ParityWordAutomaton, x: str, xi: DecoratedLassoWord) -> bool:
    """Independent route for decorated membership: an infinite path exists in
    the priority-matched product graph."""
    if aut.priority(x) != xi.grade:
        return False
    start = (x, 0)
    succ: dict = {}
    stack = [start]
    seen = {start}
    while stack:
        (y, p) = stack.pop()
        sym, q = xi.letter(p)
        nxt = xi.next_pos(p)
        outs = []
        if aut.priority(y) == q:
            for z in aut.successors(y, sym):
                outs.append((z, nxt))
        succ[(y, p)] = outs
        for v in outs:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    # an infinite path exists iff some reachable vertex lies on a cycle
    return cycle_with_max_parity(seen, succ, dict.fromkeys(seen, 2), parity=0) is not None


def _prop_decorated(cfg: CampaignConfig, trial: _WordTrial, seed: int, index: int) -> str | None:
    overdict = lasso_acceptance(trial.aut, trial.state, trial.lasso)
    if overdict.value:
        xi = decorate_run(overdict.run, trial.aut.priorities)
        if not decorated_trace_membership(trial.aut, trial.state, xi).value:
            return f"oracle witness not decorated-accepted: {xi} on {trial.describe()}"
        # mutate priorities; membership must then match the product search
        rng = _trial_rng(seed, index, "mutate")
        mutated = _mutate_decoration(xi, rng)
        if mutated is not None:
            got = decorated_trace_membership(trial.aut, trial.state, mutated).value
            want = _decorated_realizable(trial.aut, trial.state, mutated)
            if got != want:
                return (
                    f"mutated decoration {mutated}: engine={got} product-search={want} "
                    f"on {trial.describe()}"
                )
    return None


def _mutate_decoration(xi: DecoratedLassoWord, rng: random.Random) -> DecoratedLassoWord | None:
    """Perturb one priority while keeping the datatype law and the grade."""
    for _ in range(8):
        stem, cycle = list(xi.stem), list(xi.cycle)
        seg = cycle if (rng.random() < 0.7 or not stem) else stem
        i = rng.randrange(len(seg))
        sym, p = seg[i]
        delta = rng.choice([-2, -1, 1, 2])
        q = p + delta
        if q < 1:
            continue
        seg[i] = (sym, q)
        cand = DecoratedLassoWord(tuple(stem), tuple(cycle))
        if cand.grade == xi.grade and not check_decorated_invariant(cand):
            return cand
    return None


def _prop_trees(cfg: CampaignConfig, seed: int, index: int) -> str | None:
    rng = _trial_rng(seed, index, "tree")
    params = TreeGenParams(
        n_states=rng.randint(1, cfg.tree_states),
        n_symbols=rng.randint(1, cfg.tree_symbols),
        max_arity=cfg.tree_arity,
        two_n=2 * rng.randint(1, cfg.tree_two_n // 2),
        density=rng.uniform(0.2, 0.7),
    )
    aut = random_tree_automaton(params, rng.random())
    tree = random_regular_tree(aut.alphabet, rng.randint(1, cfg.tree_nodes), rng)
    state = rng.choice(aut.states)
    engine = tree_language_membership(aut, state, tree).value
    overdict = tree_membership_oracle(aut, state, tree)
    if engine != overdict.value:
        return (
            f"engine={engine} game-oracle={overdict.value} state={state} on\n"
            + serialize(aut)
            + serialize_tree(tree)
        )
    if overdict.value:
        xi = decorate_run(overdict.run, aut.priorities)
        problems = check_decorated_invariant(xi, aut.priority(state))
        if problems:
            return f"tree witness breaks the law: {problems}"
        if not tree_reps_bisimilar(delst(xi), tree):
            return "tree witness does not project back to the input tree"
        if not decorated_trace_membership(aut, state, xi).value:
            return "tree witness rejected by decorated membership"
    return None


def _prop_finite(cfg: CampaignConfig, trial: _WordTrial) -> str | None:
    engine = finite_trace_enum(trial.aut, trial.state, cfg.finite_maxlen)
    graph = finite_run_enumeration(trial.aut, trial.state, cfg.finite_maxlen)
    if engine != graph:
        extra = sorted(engine - graph)
        missing = sorted(graph - engine)
        return f"finite traces differ (extra={extra} missing={missing}) on {trial.describe()}"
    return None


def _prop_invariance(cfg: CampaignConfig, trial: _WordTrial) -> str | None:
    base = parity_trace_membership(trial.aut, trial.state, trial.lasso).value
    variants = [unroll(trial.lasso, k) for k in (2, 3)] + [normalize(trial.lasso)]
    for v in variants:
        if parity_trace_membership(trial.aut, trial.state, v).value != base:
            return f"verdict changed on variant {v} of {trial.describe()}"
    return None


def _prop_priority_shift(trial: _WordTrial) -> str | None:
    base = parity_trace_membership(trial.aut, trial.state, trial.lasso).value
    shifted = parity_trace_membership(
        trial.aut.shifted(2), trial.state, trial.lasso
    ).value
    if base != shifted:
        return f"+2 priority shift changed verdict on {trial.describe()}"
    return None


def _simulate_det(aut, x) -> object:
    """Step-by-step reference simulation for the deterministic semantics.

    Uses brute-force simple-cycle enumeration for trees, so it shares no
    machinery with the production SCC-based invariant check.
    """
    if aut.word_kind:
        pairs = []
        cur = x
        seen = {x: 0}
        while True:
            if cur not in aut.delta:
                return BOTTOM
            sym, (nxt,) = aut.delta[cur]
            pairs.append((sym, aut.priority(cur)))
            if nxt in seen:
                split = seen[nxt]
                cycle = pairs[split:]
                if max(p for _, p in cycle) % 2 != 0:
                    return BOTTOM
                return DecoratedLassoWord(tuple(pairs[:split]), tuple(cycle))
            seen[nxt] = len(pairs)
            cur = nxt
    succ = {}
    stack = [x]
    reach = {x}
    while stack:
        y = stack.pop()
        if y not in aut.delta:
            return BOTTOM
        succ[y] = aut.delta[y][1]
        for z in succ[y]:
            if z not in reach:
                reach.add(z)
                stack.append(z)
    for cycle in enumerate_simple_cycles(reach, succ):
        if max(aut.priority(y) for y in cycle) % 2 != 0:
            return BOTTOM
    nodes = {y: ((aut.delta[y][0], aut.priority(y)), aut.delta[y][1]) for y in reach}
    return DecoratedRegularTreeRep(nodes, x)


def _prop_det_exception(cfg: CampaignConfig, seed: int, index: int) -> str | None:
    rng = _trial_rng(seed, index, "det")
    params = DetGenParams(
        n_states=rng.randint(1, cfg.max_states),
        n_symbols=rng.randint(1, cfg.tree_symbols),
        max_arity=cfg.tree_arity,
        two_n=2 * rng.randint(1, cfg.max_two_n // 2),
        undefined_prob=rng.uniform(0.0, 0.4),
        word=rng.random() < 0.5,
    )
    if params.word and params.n_symbols > len(_LETTERS):  # a redraw keeps it uniform
        params = params._replace(n_symbols=rng.randint(1, len(_LETTERS)))
    aut = random_det_exception_automaton(params, rng.random())
    state = rng.choice(aut.states)
    got = det_exception_behavior(aut, state)
    want = _simulate_det(aut, state)
    if got is BOTTOM or want is BOTTOM:
        if got is not want:
            return f"det behavior {got!r} != simulation {want!r} on\n{serialize(aut)}"
        return None
    if isinstance(got, DecoratedLassoWord):
        if normalize(got) != normalize(want):
            return f"det lasso {got} != simulated {want} on\n{serialize(aut)}"
    else:
        if not tree_reps_bisimilar(got, want):
            return f"det tree differs from simulation on\n{serialize(aut)}"
    return None


PROPERTIES = (
    "engine-vs-oracle",
    "buchi-as-parity",
    "flattening",
    "decorated",
    "trees",
    "finite-traces",
    "invariance",
    "priority-shift",
    "det-exception",
)


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def _word_trial_candidates(trial: _WordTrial):
    aut, state, lasso = trial.aut, trial.state, trial.lasso
    for i in range(len(aut.transitions)):
        trans = aut.transitions[:i] + aut.transitions[i + 1 :]
        yield _WordTrial(
            ParityWordAutomaton(aut.states, aut.alphabet, trans, aut.priorities, aut.final),
            state,
            lasso,
        )
    for s in aut.states:
        if s == state or len(aut.states) == 1:
            continue
        states = tuple(t for t in aut.states if t != s)
        trans = [t for t in aut.transitions if s not in (t[0], t[2])]
        prios = {t: p for t, p in aut.priorities.items() if t != s}
        yield _WordTrial(
            ParityWordAutomaton(states, aut.alphabet, trans, prios, aut.final - {s}),
            state,
            lasso,
        )
    for victim in aut.states:
        for survivor in aut.states:
            if victim in (survivor, state):
                continue
            rename = lambda t: survivor if t == victim else t
            states = tuple(t for t in aut.states if t != victim)
            trans = {(rename(a), b, rename(c)) for (a, b, c) in aut.transitions}
            prios = {t: p for t, p in aut.priorities.items() if t != victim}
            final = frozenset(rename(t) for t in aut.final)
            yield _WordTrial(
                ParityWordAutomaton(states, aut.alphabet, sorted(trans), prios, final),
                state,
                lasso,
            )
    if lasso.stem:
        yield _WordTrial(aut, state, LassoWord(lasso.stem[1:], lasso.cycle))
    if len(lasso.cycle) > 1:
        for i in range(len(lasso.cycle)):
            yield _WordTrial(
                aut, state, LassoWord(lasso.stem, lasso.cycle[:i] + lasso.cycle[i + 1 :])
            )


def _shrink_word_trial(trial: _WordTrial, still_fails) -> _WordTrial:
    """Greedy structural shrinking; every step re-checks the failure."""
    current = trial
    for _ in range(64):
        for cand in _word_trial_candidates(current):
            try:
                if still_fails(cand):
                    current = cand
                    break
            except Exception:
                continue
        else:
            break
    return current


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

def campaign(config: CampaignConfig, seed: int) -> Report:
    """Run the configured differential campaign; deterministic in ``seed``."""
    wanted = config.properties or PROPERTIES
    results = {name: PropertyResult(name) for name in wanted}

    def record(name: str, failure: str | None, trial=None, checker=None):
        res = results[name]
        if failure is None:
            res.passed += 1
            return
        res.failed += 1
        if len(res.counterexamples) < config.max_counterexamples:
            if trial is not None and checker is not None:
                trial = _shrink_word_trial(trial, lambda t: checker(t) is not None)
                failure = checker(trial) or failure
            res.counterexamples.append(failure)

    for index in range(config.trials):
        word_trial = _gen_word_trial(config, seed, index)
        if "engine-vs-oracle" in results:
            checker = lambda t: _prop_engine_vs_oracle(config, t)
            record("engine-vs-oracle", checker(word_trial), word_trial, checker)
        if "buchi-as-parity" in results:
            record("buchi-as-parity", _prop_buchi_as_parity(config, seed, index))
        if "flattening" in results:
            checker = lambda t: _prop_flattening(t)
            record("flattening", checker(word_trial), word_trial, checker)
        if "decorated" in results:
            record("decorated", _prop_decorated(config, word_trial, seed, index))
        if "trees" in results:
            record("trees", _prop_trees(config, seed, index))
        if "finite-traces" in results:
            checker = lambda t: _prop_finite(config, t)
            record("finite-traces", checker(word_trial), word_trial, checker)
        if "invariance" in results:
            record("invariance", _prop_invariance(config, word_trial))
        if "priority-shift" in results:
            record("priority-shift", _prop_priority_shift(word_trial))
        if "det-exception" in results:
            record("det-exception", _prop_det_exception(config, seed, index))
    return Report(seed=seed, trials=config.trials, results=list(results.values()))


# ---------------------------------------------------------------------------
# Pinned suite
# ---------------------------------------------------------------------------

def _pinned_cases():
    """Yield (name, checker) pairs with exact expected verdicts embedded."""
    from . import hes as hes_module
    from .automata import DeterministicExceptionAutomaton, RankedAlphabet
    from .lattice import PowersetLattice
    from .omega_input import parse_decorated_lasso, parse_lasso

    intro = intro_automaton()
    appendix = appendix_automaton()

    def case(name, fn):
        return (name, fn)

    def expect(cond, msg):
        return None if cond else msg

    yield case(
        "intro: (ba)^w accepted from x (engine)",
        lambda: expect(parity_trace_membership(intro, "x", parse_lasso(";ba")).value, "expected true"),
    )
    yield case(
        "intro: (ba)^w accepted from x (oracle)",
        lambda: expect(lasso_acceptance(intro, "x", parse_lasso(";ba")).value, "expected true"),
    )
    yield case(
        "intro: b a^w rejected from x (engine)",
        lambda: expect(not parity_trace_membership(intro, "x", parse_lasso("b;a")).value, "expected false"),
    )
    yield case(
        "intro: b a^w rejected from x (oracle)",
        lambda: expect(not lasso_acceptance(intro, "x", parse_lasso("b;a")).value, "expected false"),
    )
    yield case(
        "intro: flattening witness for (ba)^w",
        lambda: expect(
            (lambda r: r.agree and r.witness is not None and normalize(r.witness)
             == normalize(parse_decorated_lasso("b:1;a:2,b:1")))(
                flattening_theorem_check(intro, "x", parse_lasso(";ba"))
            ),
            "expected the decorated witness b:1;a:2,b:1",
        ),
    )
    yield case(
        "appendix: b^w accepted from x",
        lambda: expect(parity_trace_membership(appendix, "x", parse_lasso(";b")).value, "expected true"),
    )
    yield case(
        "appendix: (bc)^w rejected from x",
        lambda: expect(not parity_trace_membership(appendix, "x", parse_lasso(";bc")).value, "expected false"),
    )
    yield case(
        "appendix: oracle agrees on b^w and (bc)^w",
        lambda: expect(
            lasso_acceptance(appendix, "x", parse_lasso(";b")).value
            and not lasso_acceptance(appendix, "x", parse_lasso(";bc")).value,
            "oracle disagrees with pinned verdicts",
        ),
    )

    def order_sensitivity():
        lat = PowersetLattice(("p",))
        eq = lambda var, sign, body: hes_module.Equation(var, lat, sign, body)
        forward = hes_module.HierEqSystem(
            [eq("u1", "mu", lambda a: a[1]), eq("u2", "nu", lambda a: a[0])]
        )
        swapped = hes_module.HierEqSystem(
            [eq("u1", "nu", lambda a: a[1]), eq("u2", "mu", lambda a: a[0])]
        )
        got_fwd = hes_module.solve(forward).assignment
        got_swp = hes_module.solve(swapped).assignment
        if got_fwd != (1, 1):
            return f"mu-then-nu solved to {got_fwd}, expected ({{p}},{{p}})"
        if got_swp != (0, 0):
            return f"nu-then-mu solved to {got_swp}, expected (empty, empty)"
        return None

    yield case("order sensitivity of signed equations", order_sensitivity)

    def det_cases():
        one = RankedAlphabet([("a", 1)])
        loop2 = DeterministicExceptionAutomaton(
            ("x",), one, {"x": ("a", ("x",))}, {"x": 2}, "word"
        )
        got = det_exception_behavior(loop2, "x")
        if not isinstance(got, DecoratedLassoWord) or normalize(got) != normalize(
            DecoratedLassoWord((), (("a", 2),))
        ):
            return f"even self-loop gave {got!r}"
        dead = DeterministicExceptionAutomaton(
            ("x", "y"), one, {"x": ("a", ("y",))}, {"x": 2, "y": 2}, "word"
        )
        if det_exception_behavior(dead, "x") is not BOTTOM:
            return "undefined successor should give bottom"
        loop1 = DeterministicExceptionAutomaton(
            ("x",), one, {"x": ("a", ("x",))}, {"x": 1}, "word"
        )
        if det_exception_behavior(loop1, "x") is not BOTTOM:
            return "odd self-loop should give bottom"
        return None

    yield case("deterministic-with-exception pinned trio", det_cases)


def pinned_suite() -> Report:
    """Run the embedded worked examples; failures carry their messages."""
    results = []
    for name, fn in _pinned_cases():
        res = PropertyResult(name)
        failure = fn()
        if failure is None:
            res.passed = 1
        else:
            res.failed = 1
            res.counterexamples.append(failure)
        results.append(res)
    return Report(seed=0, trials=len(results), results=results)
