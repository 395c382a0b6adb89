"""Property suites for the entropy inequalities the library relies on.

Seeded corpora rather than fixed examples: every inequality here holds for
all valid inputs, so a failure at any draw is a bug, not flakiness.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import entropy_lab as el

from conftest import (
    fixture_path,
    kl,
    random_density,
    random_partition,
    random_prob,
    random_system,
)
from oracles import gram_state


def mix_densities(weights, rhos):
    out = np.zeros_like(rhos[0])
    for w, rho in zip(weights, rhos):
        out += w * rho
    return out


class TestConcavitySandwich:
    def test_shannon(self):
        rng = np.random.default_rng(111)
        for _ in range(300):
            a, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            lam = random_prob(rng, a)
            ps = rng.dirichlet(np.ones(n), size=a)
            mean = el.shannon_entropy(lam @ ps)
            avg = float(sum(l * el.shannon_entropy(p) for l, p in zip(lam, ps)))
            assert avg - 1e-12 <= mean
            assert mean <= avg + el.shannon_entropy(lam) + 1e-12

    def test_von_neumann(self):
        rng = np.random.default_rng(113)
        for _ in range(150):
            a, d = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            lam = random_prob(rng, a)
            rhos = [random_density(rng, d) for _ in range(a)]
            mean = el.von_neumann_entropy(mix_densities(lam, rhos))
            avg = float(sum(l * el.von_neumann_entropy(r) for l, r in zip(lam, rhos)))
            assert avg - 1e-10 <= mean
            assert mean <= avg + el.shannon_entropy(lam) + 1e-10


class TestRelativeEntropyMonotonicity:
    def test_pushforward_contracts(self):
        rng = np.random.default_rng(127)
        for _ in range(300):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            p = random_prob(rng, n)
            q = random_prob(rng, n)
            channel = rng.dirichlet(np.ones(m), size=n)
            before = kl(p, q)
            after = kl(p @ channel, q @ channel)
            assert after <= before + 1e-10

    def test_pinsker_lower_bound(self):
        rng = np.random.default_rng(131)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            p = random_prob(rng, n)
            q = random_prob(rng, n)
            l1 = float(np.sum(np.abs(p - q)))
            assert kl(p, q) >= 0.5 * l1 * l1 - 1e-12


class TestHolevoType:
    def test_hud_below_gram_entropy(self):
        rng = np.random.default_rng(137)
        for _ in range(200):
            n, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            mu = random_prob(rng, n)
            part = random_partition(rng, n, k)
            hud = el.hud_functional(mu, part)
            gram = el.von_neumann_entropy(gram_state(mu, part.response))
            assert hud <= gram + 1e-9

    def test_hud_below_gram_entropy_refined(self):
        rng = np.random.default_rng(139)
        for _ in range(30):
            system = random_system(rng, int(rng.integers(2, 4)))
            part = random_partition(rng, system.n_states, 2)
            for depth in (2, 3):
                refined = el.refine_afl(system, part, depth)
                hud = el.hud_functional(system.stationary, refined)
                gram = el.von_neumann_entropy(gram_state(system.stationary, refined.elements))
                assert hud <= gram + 1e-9


class TestOrderingChain:
    def test_corpus(self):
        rng = np.random.default_rng(149)
        for _ in range(60):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            system = random_system(rng, n)
            if rng.random() < 0.3:
                cells = [[] for _ in range(k)]
                for x in range(n):
                    cells[x % k].append(x)
                part = el.sharp_partition([c for c in cells if c], n)
            else:
                part = random_partition(rng, n, k)
            values = {
                kind: el.entropy_sequence(system, part, kind, 3).values
                for kind in el.EntropyKind
            }
            for i in range(3):
                hud = values[el.EntropyKind.HUD][i]
                mak = values[el.EntropyKind.MAK][i]
                afl = values[el.EntropyKind.AFL][i]
                kow = values[el.EntropyKind.KOW][i]
                assert hud <= mak + 1e-9
                assert hud <= afl + 1e-9
                assert afl <= kow + 1e-9

    def test_quantum_below_dephased(self):
        rng = np.random.default_rng(151)
        for _ in range(100):
            rho = random_density(rng, int(rng.integers(2, 6)))
            dephased = np.clip(np.diagonal(rho), 0.0, None)
            assert el.von_neumann_entropy(rho) <= el.shannon_entropy(dephased) + 1e-10


class TestSharpDominance:
    def _factoring_pair(self, rng, n, cells_count, k):
        """Unsharp partition that factors through a sharp one: F = indicator(cells) o kernel."""
        cells = [[] for _ in range(cells_count)]
        for x in range(n):
            cells[x % cells_count].append(x)
        cells = [c for c in cells if c]
        sharp = el.sharp_partition(cells, n)
        kernel = rng.dirichlet(np.ones(k), size=len(cells))
        response = np.vstack([kernel[c] for c in np.argmax(sharp.response, axis=1)])
        return sharp, el.PartitionOfUnity(response)

    def test_hud_dominated_by_sharp(self):
        rng = np.random.default_rng(157)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            sharp, unsharp = self._factoring_pair(rng, n, int(rng.integers(2, n + 1)), 3)
            system = random_system(rng, n)
            for depth in (1, 2, 3):
                hud_unsharp = el.hud_functional(
                    system.stationary, el.refine_afl(system, unsharp, depth)
                )
                hud_sharp = el.hud_functional(
                    system.stationary, el.refine_afl(system, sharp, depth)
                )
                assert hud_unsharp <= hud_sharp + 1e-9

    def test_afl_dominated_by_sharp_words(self):
        rng = np.random.default_rng(163)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            sharp, unsharp = self._factoring_pair(rng, n, int(rng.integers(2, n + 1)), 3)
            system = random_system(rng, n)
            for depth in (1, 2, 3):
                afl = el.von_neumann_entropy(el.rho_afl(system, unsharp, depth))
                kow_sharp = el.shannon_entropy(
                    el.distribution(
                        system.stationary, el.refine_afl(system, sharp, depth)
                    )
                )
                assert afl <= kow_sharp + 1e-9


class TestPastTheOldDimCap:
    """Depths whose k^N x k^N state the default dim_cap of 2048 forbids."""

    def _sequences(self, system, part, n_max):
        return {
            kind: el.entropy_sequence(system, part, kind, n_max) for kind in el.EntropyKind
        }

    def _check_chain(self, seqs, depths):
        values = {kind: seq.values for kind, seq in seqs.items()}
        for i in range(depths):
            if i < values[el.EntropyKind.MAK].shape[0]:
                assert values[el.EntropyKind.HUD][i] <= values[el.EntropyKind.MAK][i] + 1e-9
            if i < values[el.EntropyKind.AFL].shape[0]:
                assert values[el.EntropyKind.HUD][i] <= values[el.EntropyKind.AFL][i] + 1e-9
                assert values[el.EntropyKind.AFL][i] <= values[el.EntropyKind.KOW][i] + 1e-9
        for kind in (el.EntropyKind.AFL, el.EntropyKind.KOW):
            assert np.all(np.diff(values[kind]) >= -1e-9)

    def test_mak_on_the_two_state_chain_to_depth_14(self):
        system = el.load_system(fixture_path("systems", "two_state_chain.json"))
        part = el.load_partition(fixture_path("partitions", "two_state_blur.json"), system)
        seqs = self._sequences(system, part, 14)
        for kind in (el.EntropyKind.HUD, el.EntropyKind.MAK, el.EntropyKind.KOW):
            assert seqs[kind].truncated_at is None
        # afl still diagonalizes its 2^N word side, which the cap stops at depth 12.
        assert seqs[el.EntropyKind.AFL].truncated_at == 12
        self._check_chain(seqs, 14)
        mak = seqs[el.EntropyKind.MAK].values
        assert np.all(mak[11:] <= math.log(2) + 1e-12)

    def test_unsharp_three_cycle_to_depth_16(self):
        system = el.load_system(fixture_path("systems", "three_cycle.json"))
        part = el.PartitionOfUnity([[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]])
        seqs = self._sequences(system, part, 16)
        for kind in (el.EntropyKind.HUD, el.EntropyKind.MAK, el.EntropyKind.KOW):
            assert seqs[kind].truncated_at is None
        assert seqs[el.EntropyKind.AFL].truncated_at == 12
        self._check_chain(seqs, 16)
        # Three states: mak is bounded by log 3 at every depth.
        assert np.all(seqs[el.EntropyKind.MAK].values <= math.log(3) + 1e-12)


class TestMonotonicityInDepth:
    def test_kow_and_afl_nondecreasing(self):
        rng = np.random.default_rng(167)
        for _ in range(25):
            system = random_system(rng, int(rng.integers(2, 4)))
            part = random_partition(rng, system.n_states, 2)
            for kind in (el.EntropyKind.KOW, el.EntropyKind.AFL):
                seq = el.entropy_sequence(system, part, kind, 4)
                assert np.all(np.diff(seq.values) >= -1e-9)

    def test_kow_increments_never_exceed_log_k(self):
        rng = np.random.default_rng(173)
        for _ in range(25):
            k = int(rng.integers(2, 4))
            system = random_system(rng, 3)
            part = random_partition(rng, 3, k)
            seq = el.entropy_sequence(system, part, el.EntropyKind.KOW, 4)
            assert np.all(seq.increments <= math.log(k) + 1e-9)


@settings(max_examples=40)
@given(
    st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=4),
    st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=4),
    st.integers(0, 2**31 - 1),
)
def test_sandwich_property(raw_lam, raw_p, seed):
    rng = np.random.default_rng(seed)
    lam = np.asarray(raw_lam) / np.sum(raw_lam)
    ps = rng.dirichlet(np.asarray(raw_p), size=len(raw_lam))
    mean = el.shannon_entropy(lam @ ps)
    avg = float(sum(l * el.shannon_entropy(p) for l, p in zip(lam, ps)))
    assert avg - 1e-12 <= mean <= avg + el.shannon_entropy(lam) + 1e-12
