"""Random monotone equation systems in the standalone text format, and
sign swaps of a system.

Bodies are union/intersection expressions over variables and ground-set
literals, hence monotone by construction; generating through the text
format exercises the parser on every trial.
"""

import random

from paritrace.hes import Equation, HierEqSystem, parse_hes_text


def with_signs(hes: HierEqSystem, signs) -> HierEqSystem:
    """Copy of the system with replaced signs."""
    if len(signs) != len(hes.equations):
        raise ValueError("sign list length mismatch")
    return HierEqSystem(
        [Equation(eq.var, eq.lattice, s, eq.body) for eq, s in zip(hes.equations, signs)]
    )


def random_hes_text(rng: random.Random, max_equations=3, max_ground=4) -> str:
    ground = [f"g{i}" for i in range(rng.randint(1, max_ground))]
    m = rng.randint(1, max_equations)
    variables = [f"u{i + 1}" for i in range(m)]

    def literal():
        items = [g for g in ground if rng.random() < 0.5]
        return "{" + " ".join(items) + "}"

    def atom(depth):
        r = rng.random()
        if depth > 2 or r < 0.35:
            return literal()
        if r < 0.75:
            return rng.choice(variables)
        return "(" + expr(depth + 1) + ")"

    def expr(depth):
        parts = [atom(depth)]
        for _ in range(rng.randint(0, 2)):
            op = rng.choice(["|", "&"])
            parts.append(op)
            parts.append(atom(depth))
        return " ".join(parts)

    lines = ["ground: " + " ".join(ground)]
    for var in variables:
        sign = rng.choice(["mu", "nu"])
        lines.append(f"{var} ={sign} {expr(0)}")
    return "\n".join(lines) + "\n"


def random_hes(rng: random.Random, **kwargs):
    return parse_hes_text(random_hes_text(rng, **kwargs))
