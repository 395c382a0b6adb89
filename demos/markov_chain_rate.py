#!/usr/bin/env python3
"""Block entropies and the entropy rate of a two-state Markov chain.

Reads off the stationary measure, builds the sharp state partition, and
compares the depth-N word entropies against the closed form

    s_N = S(mu) + (N - 1) * h,    h = sum_x mu_x sum_y eta(P_xy),

then reads the rate off the tail of the sequence, its last increment and
its last ratio, and maximizes it over every sharp partition of the state
space.
"""

import numpy as np

from entropy_lab import (
    EntropyKind,
    entropy_sequence,
    eta,
    make_markov,
    shannon_entropy,
    sharp_partition,
    sup_over_sharp,
)


def closed_form_rate(system) -> float:
    """Conditional next-symbol entropy of the chain itself."""
    return float(system.stationary @ np.sum(eta(system.transition), axis=1))


def main():
    system = make_markov(["a", "b"], [[0.9, 0.1], [0.2, 0.8]])
    mu = system.stationary
    s_mu = shannon_entropy(mu)
    h = closed_form_rate(system)
    print(f"stationary measure: {mu}")
    print(f"S(mu) = {s_mu:.12f} nats, closed-form rate h = {h:.12f} nats")
    print()

    f = sharp_partition([[0], [1]], system.n_states, labels=["a", "b"])
    seq = entropy_sequence(system, f, EntropyKind.KOW, 8)
    print("  N        s_N     increment    closed form")
    for i, value in enumerate(seq.values):
        n = i + 1
        predicted = s_mu + (n - 1) * h
        print(f"  {n}  {value:.9f}  {seq.increments[i]:.9f}  {predicted:.9f}")
    gap = np.max(np.abs(seq.values - (s_mu + np.arange(8) * h)))
    print(f"max |s_N - closed form| = {gap:.3e}")
    print()

    print(f"rate from last increment: {seq.increments[-1]:.12f}")
    print(f"rate from last ratio:     {seq.ratios[-1]:.12f}")
    print("(the ratio estimator still carries the S(mu)/N transient)")
    print()

    best = sup_over_sharp(system, EntropyKind.KOW, 6)
    cells = [[system.states[x] for x in cell] for cell in best.cells]
    print(f"sharp partitions tried: {best.candidates}")
    print(f"best cells: {cells}, rate {best.sequence.increments[-1]:.12f}")
    print("the full state partition wins, so the chain's rate is h")


if __name__ == "__main__":
    main()
