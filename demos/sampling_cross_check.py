#!/usr/bin/env python3
"""Monte Carlo word counts against the exact word distribution.

Samples the stationary chain, reads outcome symbols through the response
rows, and compares the empirical word frequencies with the analytic law of
the nested refinement.  The samples are drawn together, as groups that
share state and word, from one seeded generator, so reruns reproduce the
counts bit for bit.
"""

import numpy as np

from entropy_lab import (
    PartitionOfUnity,
    empirical_distribution,
    make_markov,
    refine_afl,
    sample_words,
    tv_bound,
    tv_distance,
    word_from_code,
    word_label,
)
from entropy_lab.partitions import distribution


def main():
    system = make_markov(["a", "b"], [[0.9, 0.1], [0.2, 0.8]])
    f = PartitionOfUnity(np.array([[0.8, 0.2], [0.3, 0.7]]), labels=["L", "R"])
    depth = 3
    n_words = f.n_outcomes**depth

    analytic = distribution(system.stationary, refine_afl(system, f, depth))
    for n_samples in (1000, 10000, 100000, 1000000):
        counts = sample_words(system, f, depth, n_samples, seed=123)
        emp = empirical_distribution(counts)
        tv = tv_distance(emp, analytic)
        bound = tv_bound(n_words, n_samples)
        status = "within" if tv <= bound else "EXCEEDED"
        print(f"  {n_samples:>8} samples: tv = {tv:.6f}, bound {bound:.6f} ({status})")
    print()

    n_samples = 100000
    counts = sample_words(system, f, depth, n_samples, seed=123)
    emp = empirical_distribution(counts)
    print("  word      count   empirical   analytic")
    for code in np.argsort(-analytic, kind="stable"):
        word = word_from_code(int(code), f.n_outcomes, depth)
        print(
            f"  {word_label(f, word)}  {int(counts[code]):>8}"
            f"   {emp[code]:.6f}   {analytic[code]:.6f}"
        )
    again = sample_words(system, f, depth, n_samples, seed=123)
    print(f"\nrerun with the same seed reproduces every count: {np.array_equal(counts, again)}")


if __name__ == "__main__":
    main()
