"""Fixpoint semantics for Buchi- and parity-conditioned word and tree automata.

The package decides membership of finitely represented infinite inputs
(lasso words, regular trees) in ordinary and decorated trace semantics by
solving restricted hierarchical equation systems over finite lattices, and
ships independent graph-theoretic oracles plus a differential harness that
keeps the two routes honest against each other.

Submodules load on first use: ``paritrace.harness`` imports the harness
the first time it is read, so a command imports only what it runs.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "automata", "graphutil", "harness", "hes", "lattice", "omega_input", "oracle", "trace",
)


def __getattr__(name):
    """Import the submodule ``name`` on first access (PEP 562)."""
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
