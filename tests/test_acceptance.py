"""Acceptance gate: one check per shipped guarantee, one pass/fail line each.

Run ``pytest -s tests/test_acceptance.py`` to see every line; without -s the
lines still appear in the captured output of any failing check.  Tolerances
are pinned here and should not be loosened; a red line means the library
lost a guarantee, not that the test needs adjusting.
"""

import functools
import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from entropy_lab import (
    EntropyKind,
    PartitionOfUnity,
    cnt_functional,
    cnt_search,
    entropy_sequence,
    evolve,
    hud_functional,
    parse_partition,
    parse_system,
    refine_afl,
    rho_afl,
    shannon_entropy,
    sharp_partition,
    symmetric_eigenvalues,
    trivial_decomposition,
    uniform_unsharp,
    von_neumann_entropy,
)
from entropy_lab._errors import DocumentError, ValidationError
from entropy_lab.cli import main as cli_main
from entropy_lab.decompositions import _identification_decomposition
from entropy_lab.partitions import distribution
from entropy_lab.reports import LN2

from conftest import FIXTURE_DIR, kl, load_fixture, random_partition, random_prob, random_system
from oracles import (
    extremal_maximum,
    gram_state,
    markov_block_entropy,
    path_word_distribution,
    shannon,
)

ETA_SUM_BIASED = 0.5623351446188083
H_CHAIN = 0.38352279010702806
WITNESS_VALUE = -0.2876820724517809


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {name}")
        raise
    print(f"[criterion {number:02d}] PASS  {name}")


def _fixture_system(name):
    return parse_system(load_fixture("systems", name + ".json"))


def _fixture_partition(name, system):
    return parse_partition(load_fixture("partitions", name + ".json"), system)


def _all_fixture_pairs():
    """Every bundled system paired with every partition document it accepts."""
    pairs = []
    for spath in sorted((FIXTURE_DIR / "systems").glob("*.json")):
        system = parse_system(json.loads(spath.read_text()))
        for ppath in sorted((FIXTURE_DIR / "partitions").glob("*.json")):
            try:
                f = parse_partition(json.loads(ppath.read_text()), system)
            except (DocumentError, ValidationError):
                continue
            pairs.append((spath.stem, ppath.stem, system, f))
    return pairs


@functools.cache
def _random_corpus():
    """200 seeded systems with up to 4 states and up to 3 outcomes."""
    rng = np.random.default_rng(20260813)
    corpus = []
    for _ in range(200):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        corpus.append((random_system(rng, n), random_partition(rng, n, k)))
    return corpus


def test_criterion_01_independent_source_increments_equal_eta_sum():
    with criterion(1, "independent-source increments equal the eta sum for N <= 8"):
        start = time.monotonic()
        for name, expected in (("bernoulli_fair", LN2), ("bernoulli_biased", ETA_SUM_BIASED)):
            system = _fixture_system(name)
            assert abs(expected - shannon_entropy(system.stationary)) < 1e-12
            f = _fixture_partition("coin_extremal", system)
            for kind in (EntropyKind.AFL, EntropyKind.KOW):
                seq = entropy_sequence(system, f, kind, 8)
                assert seq.truncated_at is None
                np.testing.assert_allclose(seq.increments, expected, atol=1e-9)
        assert time.monotonic() - start < 10.0


def test_criterion_02_one_time_information_bounded_by_state_entropy():
    with criterion(2, "averaged outcome information never exceeds state entropy"):
        pairs = _all_fixture_pairs()
        assert len(pairs) >= 12
        for _, _, system, f in pairs:
            s_mu = shannon_entropy(system.stationary)
            seq = entropy_sequence(system, f, EntropyKind.HUD, 8)
            assert seq.truncated_at is None
            assert np.all(seq.values <= s_mu + 1e-9)
            assert seq.ratios[-1] <= s_mu / 8 + 1e-9


def test_criterion_03_totally_mixing_growth_is_linear_and_unbounded():
    with criterion(3, "totally mixing outcomes add exactly log k per step"):
        for sysname in ("two_state_chain", "three_state_doubly"):
            system = _fixture_system(sysname)
            for k in (2, 3):
                f = uniform_unsharp(system.n_states, k)
                seq = entropy_sequence(system, f, EntropyKind.KOW, 10)
                expected = np.arange(1, 11) * math.log(k)
                np.testing.assert_allclose(seq.values, expected, atol=1e-10)


def test_criterion_04_markov_chain_rate_oracle():
    with criterion(4, "chain block entropies match path enumeration; rate = 0.383523"):
        system = _fixture_system("two_state_chain")
        f = _fixture_partition("two_state_extremal", system)
        seq = entropy_sequence(system, f, EntropyKind.KOW, 6)
        for depth in range(1, 7):
            by_paths = shannon(path_word_distribution(system, f.response, depth))
            assert abs(seq.values[depth - 1] - by_paths) <= 1e-10
            assert abs(seq.values[depth - 1] - markov_block_entropy(system, depth)) <= 1e-10
        assert np.all(np.abs(seq.increments[1:] - 0.383523) <= 1e-6)
        assert abs(seq.increments[-1] - 0.383523) <= 1e-6
        assert abs(seq.increments[-1] - H_CHAIN) <= 1e-12


def test_criterion_05_ordering_chain_on_random_corpus():
    with criterion(5, "hud <= mak and hud <= afl <= kow on 200 seeded systems"):
        for system, f in _random_corpus():
            seqs = {kind: entropy_sequence(system, f, kind, 3) for kind in EntropyKind}
            for i in range(3):
                hud = seqs[EntropyKind.HUD].values[i]
                mak = seqs[EntropyKind.MAK].values[i]
                afl = seqs[EntropyKind.AFL].values[i]
                kow = seqs[EntropyKind.KOW].values[i]
                assert hud <= mak + 1e-9
                assert hud <= afl + 1e-9
                assert afl <= kow + 1e-9


def test_criterion_06_sharp_factor_dominates_unsharp_partition():
    with criterion(6, "grouping equal response rows into a sharp factor only raises entropy"):
        for system, f in _random_corpus():
            _, inverse = np.unique(f.response, axis=0, return_inverse=True)
            inverse = inverse.reshape(-1)
            cells = [np.flatnonzero(inverse == c).tolist() for c in range(inverse.max() + 1)]
            chi = sharp_partition(cells, system.n_states)
            mu = system.stationary
            for depth in (2, 3):
                refined_f = refine_afl(system, f, depth)
                refined_chi = refine_afl(system, chi, depth)
                assert hud_functional(mu, refined_f) <= hud_functional(mu, refined_chi) + 1e-9
                afl_f = von_neumann_entropy(rho_afl(system, f, depth))
                kow_chi = shannon_entropy(distribution(mu, refined_chi))
                assert afl_f <= kow_chi + 1e-9


def test_criterion_07_one_time_functional_closed_form():
    with criterion(7, "closed form equals the exhaustive decomposition maximum"):
        rng = np.random.default_rng(7)
        for n in range(2, 6):
            for k in range(2, 5):
                for _ in range(3):
                    system = random_system(rng, n)
                    f = random_partition(rng, n, k)
                    mu = system.stationary
                    closed = hud_functional(mu, f)
                    assert abs(extremal_maximum(mu, f) - closed) <= 1e-9
                    assert abs(cnt_functional(mu, trivial_decomposition(mu, 1), [f])) <= 1e-12
                    two = trivial_decomposition(mu, 2)
                    assert abs(cnt_functional(mu, two, [f, f])) <= 1e-12
                    if n <= 3:
                        best = max(
                            cnt_functional(mu, _identification_decomposition(mu, (a,), (n,)), [f])
                            for a in itertools.product(range(n), repeat=n)
                        )
                        assert abs(best - closed) <= 1e-9


def test_criterion_08_two_time_functional_goes_negative():
    with criterion(8, "identification decompositions go below zero; the search does not"):
        system = _fixture_system("three_state_doubly")
        f = _fixture_partition("three_split", system)
        mu = system.stationary
        witness = _identification_decomposition(mu, ((0, 1, 1), (0, 1, 1)), (3, 3))
        value = cnt_functional(mu, witness, (f, f))
        assert value < -1e-6
        assert abs(value - WITNESS_VALUE) <= 1e-9
        # the same identification is negative against the evolved copy too
        assert cnt_functional(mu, witness, (f, evolve(system, f))) < -1e-6
        result = cnt_search(system, f, f, budget=50, seed=0)
        assert result.best_value >= 0.0
        assert result.negative_identifications >= 1
        assert result.identifications == 3 ** 6


def test_criterion_09_measurement_state_structure():
    with criterion(9, "measurement states are densities; sharp states are diagonal word laws"):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, 4))
            system = random_system(rng, n)
            f = random_partition(rng, n, k)
            mu = system.stationary
            gram = gram_state(mu, f.response)
            for rho in (gram, rho_afl(system, f, 2), rho_afl(system, f, 3)):
                assert np.max(np.abs(rho - rho.T)) <= 1e-12
                assert abs(np.trace(rho) - 1.0) <= 1e-10
                assert symmetric_eigenvalues(rho).min() >= -1e-10
            np.testing.assert_allclose(np.diag(gram), distribution(mu, f), atol=1e-12)
            assert np.max(np.abs(rho_afl(system, f, 1) - gram)) <= 1e-12
            assign = rng.integers(0, 2, n)
            if assign.min() == assign.max():
                assign[0] = 1 - assign[0]
            chi = sharp_partition(
                [[int(x) for x in np.flatnonzero(assign == j)] for j in (0, 1)], n
            )
            state = rho_afl(system, chi, 3)
            words = path_word_distribution(system, chi.response, 3)
            assert np.max(np.abs(state - np.diag(words))) <= 1e-12
        # deterministic dynamics: nested and independent refinement states agree
        cycle = _fixture_system("three_cycle")
        blur3 = PartitionOfUnity(np.array([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]]))
        for depth in (2, 3):
            lhs = rho_afl(cycle, blur3, depth)
            rhs = gram_state(cycle.stationary, refine_afl(cycle, blur3, depth).elements)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
        # stochastic dynamics: those states differ, pinned here at depth 3
        fair = _fixture_system("bernoulli_fair")
        coin = _fixture_partition("coin_extremal", fair)
        gap = abs(
            von_neumann_entropy(rho_afl(fair, coin, 3))
            - von_neumann_entropy(gram_state(fair.stationary, refine_afl(fair, coin, 3).elements))
        )
        assert gap > 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="the depth-2 identity between the nested measurement state and the Gram "
    "state of the depth-2 refinement holds for deterministic dynamics only: for a "
    "genuinely stochastic kernel the nested state of a sharp partition stays "
    "diagonal while the refined rows blur and acquire off-diagonal overlap, so "
    "requiring equality on a stochastic corpus is unsatisfiable",
)
def test_criterion_09_depth_two_identity_on_stochastic_corpus():
    with criterion(9, "depth-2 nested state equals the refined Gram state (stochastic)"):
        fair = _fixture_system("bernoulli_fair")
        coin = _fixture_partition("coin_extremal", fair)
        lhs = rho_afl(fair, coin, 2)
        rhs = gram_state(fair.stationary, refine_afl(fair, coin, 2).elements)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        rng = np.random.default_rng(92)
        for _ in range(10):
            system = random_system(rng, 3)
            f = random_partition(rng, 3, 2)
            lhs = rho_afl(system, f, 2)
            rhs = gram_state(system.stationary, refine_afl(system, f, 2).elements)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_criterion_10_classical_inequality_suite():
    with criterion(10, "sandwich, pushforward monotonicity, Gram bound on 1000 draws"):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 5))
            lam = random_prob(rng, m)
            rows = np.stack([random_prob(rng, n) for _ in range(m)])
            avg = float(sum(w * shannon_entropy(r) for w, r in zip(lam, rows)))
            s_mix = shannon_entropy(lam @ rows)
            assert avg - 1e-9 <= s_mix <= avg + shannon_entropy(lam) + 1e-9
            p, q = random_prob(rng, n), random_prob(rng, n)
            t = np.stack([random_prob(rng, m) for _ in range(n)])
            assert kl(p @ t, q @ t) <= kl(p, q) + 1e-9
            k = int(rng.integers(2, 4))
            system = random_system(rng, n)
            f = random_partition(rng, n, k)
            bound = von_neumann_entropy(gram_state(system.stationary, f.response))
            assert hud_functional(system.stationary, f) <= bound + 1e-9


def test_criterion_11_monte_carlo_consistency(tmp_path):
    with criterion(11, "a million sampled words match the analytic law byte-stably"):
        outputs = []
        for run in range(2):
            out_path = tmp_path / f"run{run}.json"
            code = cli_main(
                [
                    "sample",
                    "--system", str(FIXTURE_DIR / "systems" / "bernoulli_biased.json"),
                    "--partition", str(FIXTURE_DIR / "partitions" / "coin_extremal.json"),
                    "--depth", "2",
                    "--samples", "1000000",
                    "--seed", "123",
                    "--format", "json",
                    "--out", str(out_path),
                ]
            )
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        doc = json.loads(outputs[0])
        assert doc["within_bound"] is True
        assert doc["tv_distance"] <= doc["tv_bound"]
        assert sum(doc["counts"]) == 1000000
        probs = np.array([0.75, 0.25])
        np.testing.assert_allclose(doc["analytic"], np.kron(probs, probs), atol=1e-12)
