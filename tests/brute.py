"""Independent brute-force evaluation of the intermediate-solution scheme.

Used as the ground truth for the solver: same recursion shape, but every
extremal fixpoint is found by exhaustive enumeration instead of iteration,
and nothing is memoised or warm-started.
"""

from fixpoints import brute_force_extremal_fixpoint


def brute_solve(hes, max_size=4096):
    """Solution tuple of a system, via enumeration-based extremal fixpoints."""
    equations = hes.equations

    def prefix(i, args):
        if i == 0:
            return ()
        eq = equations[i - 1]

        def f_dagger(u):
            lower = prefix(i - 1, (u,) + args)
            return eq.body(lower + (u,) + args)

        which = "least" if eq.sign == "mu" else "greatest"
        u = brute_force_extremal_fixpoint(f_dagger, eq.lattice, which, max_size=max_size)
        return prefix(i - 1, (u,) + args) + (u,)

    return prefix(len(equations), ())
