"""Scalar entropy layer: frozen values, contracts, and the Jacobi cross-check."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entropy_lab as el
from entropy_lab import ValidationError
from entropy_lab.entropy import (
    CLAMP_TOL,
    EIG_FLOOR,
    _eta,
    as_prob_vector,
    as_stochastic_matrix,
    relative_entropy_rows,
)

from conftest import kl, random_density, random_prob
from oracles import jacobi_eigenvalues

LN2 = 0.6931471805599453


class TestEta:
    def test_frozen_values(self):
        assert el.eta(0.0) == 0.0
        assert el.eta(1.0) == 0.0
        assert el.eta(0.5) == pytest.approx(0.34657359027997264, abs=1e-15)

    def test_clamping_band(self):
        assert el.eta(-1e-13) == 0.0
        assert el.eta(1.0 + 1e-13) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            el.eta(-1e-9)
        with pytest.raises(ValidationError):
            el.eta(1.1)
        with pytest.raises(ValidationError):
            el.eta(float("nan"))

    def test_array_input(self):
        out = el.eta(np.array([0.0, 0.5, 1.0]))
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[2] == 0.0
        assert out[1] == pytest.approx(0.34657359027997264, abs=1e-15)

    def test_peak_at_inverse_e(self):
        assert el.eta(1.0 / math.e) == pytest.approx(1.0 / math.e, abs=1e-15)


class TestProbVector:
    def test_clamps_tiny_negatives(self):
        p = as_prob_vector([1.0 + 1e-13, -1e-13])
        assert p[1] == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            as_prob_vector([0.5, 0.5 + 2e-9])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            as_prob_vector([1.1, -0.1])

    def test_rejects_non_vector(self):
        with pytest.raises(ValidationError):
            as_prob_vector([[0.5], [0.5]])
        with pytest.raises(ValidationError):
            as_prob_vector([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            as_prob_vector([np.inf, 0.0])


class TestShannon:
    def test_frozen_values(self):
        assert el.shannon_entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-15)
        assert el.shannon_entropy([0.75, 0.25]) == pytest.approx(
            0.5623351446188083, abs=1e-15
        )
        assert el.shannon_entropy([1.0]) == 0.0
        assert el.shannon_entropy([0.25] * 4) == pytest.approx(2 * LN2, abs=1e-14)

    def test_uniform_is_maximal(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = random_prob(rng, n)
            assert el.shannon_entropy(p) <= math.log(n) + 1e-12

    def test_accepts_every_vector_as_prob_vector_accepts(self):
        # an entry above 1 + 1e-12 is within the 1e-9 sum tolerance
        assert el.shannon_entropy([1.0 + 5e-10, 0.0]) == 0.0


class TestRelativeEntropy:
    def test_zero_on_equal(self):
        assert kl([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_frozen_value(self):
        assert kl([0.75, 0.25], [0.5, 0.5]) == pytest.approx(0.13081203594113697, abs=1e-15)

    def test_support_violation_is_inf(self):
        assert math.isinf(kl([0.5, 0.5], [1.0, 0.0]))

    def test_zero_mass_terms_dropped(self):
        # 0 log(0/q) contributes nothing even when q = 0 there.
        assert kl([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_uniform_reference_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            p = random_prob(rng, n)
            lhs = kl(p, np.full(n, 1.0 / n))
            assert lhs == pytest.approx(math.log(n) - el.shannon_entropy(p), abs=1e-12)

    def test_rows_match_one_call_per_row(self):
        rows = np.array([[0.5, 0.5, 0.0], [0.0, 0.25, 0.75], [0.2, 0.0, 0.8]])
        q = np.array([0.6, 0.4, 0.0])
        values = relative_entropy_rows(rows, q)
        assert values[0] == kl(rows[0], q)
        assert math.isinf(values[1]) and math.isinf(values[2])
        assert relative_entropy_rows(rows[:1], q).shape == (1,)

    def test_rows_match_a_termwise_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            rows = rng.dirichlet(np.ones(n), size=3) * (rng.random((3, n)) < 0.7)
            rows[:, 0] += 1.0 - rows.sum(axis=1)
            q = random_prob(rng, n) * (rng.random(n) < 0.8)
            q[0] += 1.0 - q.sum()
            for row, value in zip(rows, relative_entropy_rows(rows, q)):
                terms = [p * math.log(p / r) if r > 0.0 else math.inf
                         for p, r in zip(row, q) if p > 0.0]
                assert value == pytest.approx(math.fsum(terms), rel=1e-12, abs=1e-14)


class TestSymmetricEigenvalues:
    def test_frozen_2x2(self):
        vals = el.symmetric_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        assert vals == pytest.approx([3.0, 1.0], abs=1e-12)

    def test_descending_order(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(5, 5))
        vals = el.symmetric_eigenvalues(m + m.T)
        assert np.all(np.diff(vals) <= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            el.symmetric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            el.symmetric_eigenvalues(np.ones((2, 3)))

    def test_matches_independent_jacobi_solver(self):
        # Dual route: LAPACK behind the library, hand-rolled Jacobi here.
        rng = np.random.default_rng(2024)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            a = rng.normal(size=(d, d))
            sym = (a + a.T) / 2.0
            lib = el.symmetric_eigenvalues(sym)
            ref = jacobi_eigenvalues(sym)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(lib - ref)) <= 1e-10 * scale

    def test_diagonal_skips_lapack(self):
        with mock.patch("numpy.linalg.eigh", side_effect=AssertionError("eigh was called")):
            vals = el.symmetric_eigenvalues(np.diag([0.2, 0.5, -0.0, 0.3]))
        assert vals.tolist() == [0.5, 0.3, 0.2, 0.0]

    def test_off_diagonal_pair_of_1e_300_reaches_lapack(self):
        m = np.diag([0.5, 0.3, 0.2])
        m[0, 2] = m[2, 0] = 1e-300
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
            vals = el.symmetric_eigenvalues(m)
        assert eigh.call_count == 1
        assert vals == pytest.approx([0.5, 0.3, 0.2], abs=1e-15)

    def test_skew_within_tolerance_is_symmetrized(self):
        m = np.array([[0.5, 0.25 + 5e-13], [0.25, 0.5]])
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
            el.symmetric_eigenvalues(m)
        (sym,), _ = eigh.call_args
        assert np.array_equal(sym, (m + m.T) / 2.0)

    def test_exactly_symmetric_input_is_passed_as_is(self):
        m = np.array([[0.5, 0.25], [0.25, 0.5]])
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
            el.symmetric_eigenvalues(m)
        (sym,), _ = eigh.call_args
        assert sym is m

    def test_eigenvalue_sum_check_covers_the_diagonal_path(self):
        # The sorted sum cancels 1e17 first and loses both ones; the trace keeps one.
        with pytest.raises(ValidationError, match="eigenvalue sum deviates from trace of m by"):
            el.symmetric_eigenvalues(np.diag([1e17, 1.0, -1e17, 1.0]), "m")

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.diag([1.0, np.nan]), "rho has non-finite entries"),
            (
                [[0.5, 0.1], [0.0, 0.5]],
                r"rho is not symmetric: max \|m - m\^T\| = 1.000e-01 > 1e-12",
            ),
            (np.eye(2), r"rho has trace 2.0, not 1 within 1e-10"),
            ([[0.6, 0.1 + 5e-13], [0.1, 0.6]], r"rho has trace 1.2, not 1 within 1e-10"),
            (np.diag([1.5, -0.5]), r"rho has eigenvalue -5.000e-01 below -1e-10"),
            ([[0.5, 1.0 + 5e-13], [1.0, 0.5]], r"rho has eigenvalue -5.000e-01 below -1e-10"),
        ],
        ids=[
            "diagonal-non-finite", "skew", "diagonal-trace", "asymmetric-trace",
            "diagonal-floor", "asymmetric-floor",
        ],
    )
    def test_checks_and_messages_on_both_paths(self, matrix, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            el.von_neumann_entropy(matrix)

    def test_jacobi_agrees_on_density_corpus(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            rho = random_density(rng, int(rng.integers(2, 6)))
            lib = el.symmetric_eigenvalues(rho)
            ref = jacobi_eigenvalues(rho)
            assert np.max(np.abs(lib - ref)) <= 1e-11


class TestVonNeumann:
    def test_diagonal_matches_shannon(self):
        p = [0.5, 0.3, 0.2]
        assert el.von_neumann_entropy(np.diag(p)) == pytest.approx(
            el.shannon_entropy(p), abs=1e-12
        )

    def test_pure_state_is_zero(self):
        v = np.array([3.0, 4.0]) / 5.0
        assert el.von_neumann_entropy(np.outer(v, v)) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            el.von_neumann_entropy(np.eye(2))

    def test_rejects_negative_spectrum(self):
        with pytest.raises(ValidationError):
            el.von_neumann_entropy(np.diag([1.5, -0.5]))

    def test_maximally_mixed(self):
        assert el.von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(
            2 * LN2, abs=1e-12
        )

    def test_basis_invariance(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated = q @ rho @ q.T
        rotated = (rotated + rotated.T) / 2.0
        assert el.von_neumann_entropy(rotated) == pytest.approx(
            el.von_neumann_entropy(rho), abs=1e-10
        )


class TestDensityValidation:
    def test_accepts_valid(self):
        el.von_neumann_entropy([[0.5, 0.1], [0.1, 0.5]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            el.von_neumann_entropy([[0.5, 0.2], [0.1, 0.5]])

    def test_eigenvalue_floor_band(self):
        # Slightly negative floor within -1e-10 is tolerated and clamped.
        rho = np.diag([1.0 + 5e-11, -5e-11])
        assert el.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)


class TestStochasticMatrix:
    def test_stochastic_matrix_row_sum_message_names_row(self):
        with pytest.raises(ValidationError, match="row 1"):
            as_stochastic_matrix([[0.5, 0.5], [0.9, 0.2]])


@settings(max_examples=60)
@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=6))
def test_shannon_bounds_property(raw):
    p = np.asarray(raw) / np.sum(raw)
    s = el.shannon_entropy(p)
    assert -1e-12 <= s <= math.log(len(raw)) + 1e-12


@settings(max_examples=60)
@given(
    st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=5),
    st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=5),
)
def test_relative_entropy_nonnegative_property(raw_p, raw_q):
    size = min(len(raw_p), len(raw_q))
    p = np.asarray(raw_p[:size]) / np.sum(raw_p[:size])
    q = np.asarray(raw_q[:size]) / np.sum(raw_q[:size])
    assert kl(p, q) >= -1e-12


@settings(max_examples=60)
@given(st.lists(st.floats(-CLAMP_TOL, 1.0 + CLAMP_TOL), min_size=1, max_size=8))
def test_unchecked_eta_equals_eta_on_accepted_input(raw):
    band = [-CLAMP_TOL, -5e-13, -0.0, 5e-324, 1.0 - 1e-16, 1.0 + 5e-13, 1.0 + CLAMP_TOL]
    p = np.array(raw + band)
    assert np.array_equal(_eta(p), el.eta(p))


_DIAGONAL_ENTRY = st.one_of(
    st.sampled_from((0.0, -0.0, -EIG_FLOOR, -5e-11, 0.125, 0.5)),
    st.floats(-EIG_FLOOR, 0.0),
    st.floats(0.0, 1.0),
)


@settings(max_examples=100)
@given(st.floats(1e-100, 1.0), st.lists(_DIAGONAL_ENTRY, max_size=40), st.randoms())
def test_diagonal_spectrum_equals_lapack_exactly(anchor, entries, random):
    # Zeros, signed zeros, ties and the -EIG_FLOOR band, up to 41 entries so
    # LAPACK's divide and conquer runs too.  LAPACK rescales a matrix whose
    # largest entry is below about 1e-146 and rounds its eigenvalues there,
    # so one entry is at least 1e-100; a density state has one of at least
    # 1 / side.
    diagonal = entries + [anchor]
    random.shuffle(diagonal)
    m = np.diag(diagonal)
    lapack = np.linalg.eigh(m)[0][::-1]
    assert np.array_equal(el.symmetric_eigenvalues(m), lapack)
