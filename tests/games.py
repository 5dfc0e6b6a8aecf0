"""Parity games on arbitrary hashable vertices, for the tests.

A thin adapter over ``oracle.solve_parity_game``: it numbers a dict game,
sends each dead end to a self-loop its owner loses, and maps the answer
back to the game's own vertices.
"""

from __future__ import annotations

from collections import namedtuple

from paritrace.oracle import solve_parity_game


class ParityGame(namedtuple("ParityGame", "owner edges priority")):
    """Owner (EXISTS or FORALL), successors and priority of each vertex, as
    dicts; a vertex without edges is a dead end, lost by its owner."""

    __slots__ = ()

    def vertices(self):
        return self.owner.keys()


#: Winning regions (frozensets) of both players and Exists' positional
#: strategy (a dict) on its region.
GameSolution = namedtuple("GameSolution", "exists_region forall_region exists_strategy")


def zielonka_solve(game: ParityGame) -> GameSolution:
    vertices = list(game.vertices())
    n = len(vertices)
    number = {v: i for i, v in enumerate(vertices)}
    owner = [game.owner[v] for v in vertices]
    prio = [game.priority[v] for v in vertices]
    succ = [[number[w] for w in game.edges.get(v, ())] for v in vertices]
    for v in range(n):
        if not succ[v]:
            # a self-loop of priority 1 loses for Exists, of priority 0 for Forall
            succ[v] = [len(owner)]
            succ.append([len(owner)])
            prio.append(1 - owner[v])
            owner.append(owner[v])
    won, strategy = solve_parity_game(owner, prio, succ)
    exists = frozenset(vertices[v] for v in won if v < n)
    return GameSolution(
        exists_region=exists,
        forall_region=frozenset(vertices) - exists,
        exists_strategy={
            vertices[v]: vertices[strategy[v]] for v in won if v < n and strategy[v] is not None
        },
    )
