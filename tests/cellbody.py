"""The per-cell restricted body: the reference for ``trace._phi_body``.

It evaluates one (state, position) cell at a time: position ``p`` enters
the set of state ``x`` when some transition of ``x`` on ``p``'s symbol has
the slot bit of every successor set at the matching child of ``p``, and,
in decorated mode, ``p``'s priority equals ``x``'s.  It takes the
original transitions and symbols, with the priorities of positions and
states apart, where the engine relabels them; the generator is given by
its child lists rather than its predecessor maps.  It returns one body per
equation.
"""


def cell_bodies(transitions, labels, children, partition, prios=None, priority=None):
    moves: dict = {}
    for x, sym, ys in transitions:
        moves.setdefault((x, sym), []).append(ys)
    slot_of = {y: (k, yi) for k, block in enumerate(partition) for yi, y in enumerate(block)}
    bodies = []
    for block in partition:
        rows = []
        for x in block:
            row = []
            for p in range(len(labels)):
                if prios is not None and prios[p] != priority[x]:
                    continue
                targets = moves.get((x, labels[p]))
                if targets:
                    kids = children[p]
                    row.append(
                        (p, [tuple(slot_of[y] + (q,) for y, q in zip(ys, kids)) for ys in targets])
                    )
            rows.append(row)
        bodies.append(_cell_body(rows))
    return bodies


def _cell_body(rows):
    """``rows[d]`` lists ``(p, alternatives)``: each alternative is the slots
    ``(equation_index, domain_index, position)`` that must all hold for
    ``p`` to enter the set of domain item ``d``."""

    def body(assign: tuple) -> tuple:
        out = []
        for row in rows:
            mask = 0
            for p, alternatives in row:
                for slots in alternatives:
                    for (k, yi, q) in slots:
                        if not (assign[k][yi] >> q) & 1:
                            break
                    else:
                        mask |= 1 << p
                        break
            out.append(mask)
        return tuple(out)

    return body
