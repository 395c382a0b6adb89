#!/usr/bin/env python3
"""The decomposition functional: exact at one time, non-concave at two.

At a single time the supremum over decompositions of mu has a closed form
(``hud_functional``) and is attained at extremal decompositions, the ones
a map states -> states induces.  At two times the same functional
evaluated on simple identification decompositions can go strictly
negative, so the landscape is not concave and the supremum has to be
searched, not solved.
"""

import itertools

from entropy_lab import (
    cnt_functional,
    cnt_search,
    hud_functional,
    make_markov,
    sharp_partition,
)
from entropy_lab.decompositions import _identifications


def main():
    system = make_markov(
        ["x0", "x1", "x2"],
        [[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]],
    )
    mu = system.stationary
    f = sharp_partition([[0, 1], [2]], 3, labels=["x0+x1", "x2"])

    closed = hud_functional(mu, f)
    best, count = 0.0, 0
    for assignment in itertools.product(range(3), repeat=3):
        # the map x -> assignment[x] splits mu into its level sets
        dec = _identifications(mu, [(assignment,)], (3,))[0]
        best = max(best, cnt_functional(mu, dec, [f]))
        count += 1
    print(f"one time: closed form {closed:.12f}")
    print(f"brute force over {count} extremal decompositions: {best:.12f}")
    print()

    print("two times, scanning identification decompositions:")
    values = []
    for a0 in range(3):
        for a1 in range(3):
            # identify states x1, x2 at both times, vary where x0 goes
            assignments = ((a0, 1, 1), (a1, 1, 1))
            dec = _identifications(mu, [assignments], (3, 3))[0]
            value = cnt_functional(mu, dec, (f, f))
            values.append(value)
            print(f"  maps {assignments}: {value:+.12f}")
    print(f"most negative: {min(values):+.12f}")
    print()

    result = cnt_search(system, f, f, budget=100, seed=0)
    print(f"full search: best {result.best_value:.12f} via {result.witness_label}")
    print(
        f"{result.negative_identifications} of {result.identifications} "
        "identification decompositions were negative"
    )
    print("negative values certify non-concavity; the supremum itself stays >= 0")


if __name__ == "__main__":
    main()
