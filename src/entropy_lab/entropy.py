"""Scalar entropy functionals on probability vectors and density matrices.

Every entropy in this module is measured in nats (natural logarithm).
Unit conversion happens only at presentation boundaries, never here.

Conventions enforced throughout:

* probability vectors are 1-d float arrays, entries >= 0, total 1 within
  ``SUM_TOL``; entries in the band [-CLAMP_TOL, 0) are clamped to zero,
* stochastic matrices are row-stochastic with the same row tolerance,
* density matrices are symmetric (within ``SYMMETRY_TOL``), unit trace
  (within ``TRACE_TOL``) and positive semidefinite up to ``EIG_FLOOR``.
"""

from __future__ import annotations

import math

import numpy as np

from ._errors import ValidationError

# Tolerance ladder.  Sums of probabilities are checked loosely, symmetry
# tightly; eigenvalue floors sit in between because eigensolvers are noisier
# than sums.  Entropy identities and bounds are checked within MI_FORM_TOL.
SUM_TOL = 1e-9
MI_FORM_TOL = 1e-9
CLAMP_TOL = 1e-12
SYMMETRY_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_FLOOR = 1e-10
EIG_RESIDUAL_REL = 1e-8

__all__ = [
    "SUM_TOL",
    "CLAMP_TOL",
    "SYMMETRY_TOL",
    "TRACE_TOL",
    "EIG_FLOOR",
    "as_prob_vector",
    "as_stochastic_matrix",
    "eta",
    "shannon_entropy",
    "relative_entropy_rows",
    "symmetric_eigenvalues",
    "von_neumann_entropy",
]


def as_prob_vector(p, name: str = "p") -> np.ndarray:
    """Validate and return a probability vector as a fresh float array.

    Entries in [-1e-12, 0) are clamped to 0; anything more negative is an
    error, as is a total farther than 1e-9 from 1.
    """
    arr = np.array(p, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
    if (arr < -CLAMP_TOL).any():
        worst = float(arr.min())
        raise ValidationError(f"{name} has negative entry {worst:.3e} below -{CLAMP_TOL:.0e}")
    np.maximum(arr, 0.0, out=arr)
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError(f"{name} sums to {total!r}, not 1 within {SUM_TOL:.0e}")
    return arr


def as_stochastic_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate a row-stochastic matrix and return it as a fresh float array.

    This is the one check that every row is a probability vector: a row is
    accepted exactly when ``as_prob_vector`` accepts it, and the negative
    band is clamped to 0 the same way.
    """
    arr = np.array(m, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValidationError(f"{name} has a zero dimension: {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
    if (arr < -CLAMP_TOL).any():
        i, j = np.unravel_index(int(np.argmin(arr)), arr.shape)
        raise ValidationError(
            f"{name}[{i},{j}] = {arr[i, j]:.3e} is below -{CLAMP_TOL:.0e}"
        )
    np.maximum(arr, 0.0, out=arr)
    sums = arr.sum(axis=1)
    bad = np.argmax(np.abs(sums - 1.0))
    if abs(sums[bad] - 1.0) > SUM_TOL:
        raise ValidationError(
            f"{name} {int(bad)} (row {int(bad)}) sums to {float(sums[bad])!r}, "
            f"not 1 within {SUM_TOL:.0e}"
        )
    return arr


def symmetric_eigenvalues(m, name: str = "matrix") -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending.

    The input must be square, finite and symmetric within 1e-12.  An
    exactly symmetric input is used as it is, since symmetrizing it would
    return the same bits; any other input within the tolerance is replaced
    by (m + m^T) / 2.  A matrix whose off-diagonal entries are all zero has
    its diagonal entries as exact eigenvalues, with the unit vectors as
    eigenvectors and a residual of 0, so its sorted diagonal is returned
    without a LAPACK call.  Every other matrix goes to
    ``numpy.linalg.eigh``, and its result is accepted only if every
    eigenpair satisfies ``|m v - w v| <= 1e-8 * |m|`` (spectral norm).  In
    both cases the eigenvalue sum must match the trace within 1e-9;
    otherwise a ValidationError is raised rather than returning silent
    garbage.
    """
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} has non-finite entries")
    if np.array_equal(arr, arr.T):
        sym = arr
    else:
        skew = float(np.max(np.abs(arr - arr.T)))
        if skew > SYMMETRY_TOL:
            raise ValidationError(
                f"{name} is not symmetric: max |m - m^T| = {skew:.3e} > {SYMMETRY_TOL:.0e}"
            )
        sym = (arr + arr.T) / 2.0
    diagonal = np.diagonal(sym)
    if np.count_nonzero(sym) == np.count_nonzero(diagonal):
        vals = np.sort(diagonal)
    else:
        try:
            vals, vecs = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:
            raise ValidationError(f"eigendecomposition of {name} failed: {exc}") from exc
        scale = max(float(np.max(np.abs(vals))), 1e-300)
        product = sym @ vecs
        vecs *= vals
        product -= vecs
        residual = float(np.abs(product, out=product).max())
        if residual > EIG_RESIDUAL_REL * scale:
            raise ValidationError(
                f"eigenpair residual {residual:.3e} exceeds {EIG_RESIDUAL_REL:.0e} * |{name}|"
            )
    trace_gap = abs(float(vals.sum()) - float(np.trace(sym)))
    if trace_gap > 1e-9 * max(1.0, abs(float(np.trace(sym)))):
        raise ValidationError(
            f"eigenvalue sum deviates from trace of {name} by {trace_gap:.3e}"
        )
    return vals[::-1].copy()


def eta(x):
    """Entropy integrand -x log x with eta(0) = 0, checked public entry point.

    Accepts a scalar or an array with entries in [0, 1] (a clamping band of
    1e-12 on both ends is tolerated and snapped to the boundary), then
    evaluates ``_eta``, the unchecked integrand internal entropies sum.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("eta: non-finite input")
    if np.any(arr < -CLAMP_TOL) or np.any(arr > 1.0 + CLAMP_TOL):
        raise ValidationError("eta: input outside [0, 1] beyond the 1e-12 band")
    out = _eta(arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _eta(p: np.ndarray) -> np.ndarray:
    """-p log p with 0 log 0 = 0, clipped to [0, 1]; unchecked, for arrays of checked inputs."""
    arr = np.minimum(np.maximum(0.0, p), 1.0)  # 0.0 first: a -0.0 stays -0.0, as np.clip keeps it
    out = np.zeros(arr.shape)
    np.log(arr, out=out, where=arr > 0.0)
    np.multiply(arr, out, out=out)
    np.negative(out, out=out)
    return out


def shannon_entropy(p) -> float:
    """Shannon entropy sum(eta(p_i)) in nats."""
    arr = as_prob_vector(p, "p")
    return float(np.sum(_eta(arr)))


def relative_entropy_rows(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Relative entropy of each row of ``rows`` against ``q``, unvalidated.

    For rows and q already checked as probability vectors of one length.
    The 0 log 0 = 0 rule applies, and a row with mass outside the support
    of q gives math.inf.
    """
    support = rows > 0.0
    ratios = np.divide(rows, q, out=np.ones(rows.shape), where=support & (q > 0.0))
    values = (rows * np.log(ratios)).sum(axis=1)
    if np.count_nonzero(q) < q.size:  # only a zero of q leaves mass outside its support
        values[(support & (q == 0.0)).any(axis=1)] = math.inf
    return values


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy sum(eta(spectrum)) of a density matrix, in nats.

    rho must pass the shape and symmetry checks of ``symmetric_eigenvalues``,
    have trace 1 within 1e-10 and no eigenvalue below -1e-10.
    """
    arr = np.asarray(rho, dtype=float)
    vals = symmetric_eigenvalues(arr, "rho")
    trace = float(np.trace(arr))
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValidationError(f"rho has trace {trace!r}, not 1 within {TRACE_TOL:.0e}")
    if vals[-1] < -EIG_FLOOR:
        raise ValidationError(f"rho has eigenvalue {float(vals[-1]):.3e} below -{EIG_FLOOR:.0e}")
    # _eta clips the -1e-10 band to 0, and spectra that poke above 1 by ~1 ulp to 1.
    return float(np.sum(_eta(vals)))
