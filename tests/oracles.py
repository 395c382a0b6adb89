"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow and obvious way, avoiding
the code paths (and where possible the algorithms) of the package: the
eigensolver is a hand-rolled cyclic Jacobi instead of LAPACK, refinements
and operational states are assembled by explicit enumeration of state
paths, the Markov block entropy uses its closed form, and word sampling
either gathers whole cumulative rows for every sample or splits sample
groups in a plain loop, the last symbol over ``transition @ response``.
The decomposition functional is summed by loops over the weight tensor,
and ``cnt_search`` is rebuilt one candidate at a time through the public
``Decomposition`` and ``cnt_functional``.  One reference shares the
library's kernel on purpose: ``index_information`` evaluates a single
decomposition index alone, so that the fused ``cnt_functional`` can be
required to equal it float for float.  Set partitions are listed by
filtering every string in ``itertools.product``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from entropy_lab import Decomposition, cnt_functional, trivial_decomposition
from entropy_lab.decompositions import _information
from entropy_lab.entropy import MI_FORM_TOL
from entropy_lab.partitions import _response_of

BELL_NUMBERS = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def jacobi_eigenvalues(matrix, tol: float = 1e-13, max_sweeps: int = 200) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, descending."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    scale = max(float(np.max(np.abs(a))), 1.0)
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        # norm of the off-diagonal part; summing the entries directly keeps it >= 0
        off = math.sqrt(float(np.sum(np.square(a[off_mask]))))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
    return np.sort(np.diag(a))[::-1].copy()


def shannon(p) -> float:
    """Plain -sum p log p with explicit zero handling."""
    total = 0.0
    for v in np.asarray(p, dtype=float).ravel():
        if v > 0.0:
            total -= v * math.log(v)
    return total


def set_partitions_by_product(n: int, max_cells: int | None = None) -> list:
    """Set partitions of range(n) in canonical order, from restricted growth strings.

    ``itertools.product`` lists every string over range(n) lexicographically;
    a restricted growth string starts at 0 and never exceeds its running
    maximum by more than 1.  Cell c holds the positions whose letter is c.
    """
    out = []
    for letters in itertools.product(range(n), repeat=n):
        if any(c > max(letters[:i], default=-1) + 1 for i, c in enumerate(letters)):
            continue
        n_cells = max(letters) + 1
        if max_cells is None or n_cells <= max_cells:
            out.append(tuple(tuple(x for x in range(n) if letters[x] == c) for c in range(n_cells)))
    return out


def iter_paths(transition: np.ndarray, stationary: np.ndarray, depth: int):
    """Yield (path, probability) over all state paths of the given length."""
    n = transition.shape[0]
    for path in itertools.product(range(n), repeat=depth):
        weight = stationary[path[0]]
        for a, b in zip(path, path[1:]):
            weight *= transition[a, b]
        if weight > 0.0:
            yield path, float(weight)


def path_word_distribution(system, response: np.ndarray, depth: int) -> np.ndarray:
    """Word distribution of the nested refinement by explicit path enumeration."""
    k = response.shape[1]
    dist = np.zeros(k**depth)
    for path, weight in iter_paths(system.transition, system.stationary, depth):
        vec = response[path[0]].copy()
        for x in path[1:]:
            vec = np.outer(vec, response[x]).ravel()
        dist += weight * vec
    return dist


def path_rho_afl(system, response: np.ndarray, depth: int) -> np.ndarray:
    """Operational state as an explicit convex sum of pure path states.

    Each state path contributes its probability times the projector onto
    the unit-sum-free vector u with u[word] = prod_m sqrt(f_{word_m}(x_m)).
    """
    k = response.shape[1]
    roots = np.sqrt(response)
    rho = np.zeros((k**depth, k**depth))
    for path, weight in iter_paths(system.transition, system.stationary, depth):
        u = roots[path[0]].copy()
        for x in path[1:]:
            u = np.outer(u, roots[x]).ravel()
        rho += weight * np.outer(u, u)
    return rho


def mak_elements_by_powers(system, response: np.ndarray, depth: int) -> np.ndarray:
    """Elements of the independently-evolved refinement via matrix powers."""
    n, k = response.shape
    evolved = [np.linalg.matrix_power(system.transition, m) @ response for m in range(depth)]
    out = np.zeros((n, k**depth))
    for code, word in enumerate(itertools.product(range(k), repeat=depth)):
        col = np.ones(n)
        for m, symbol in enumerate(word):
            col = col * evolved[m][:, symbol]
        out[:, code] = col
    return out


def gram_state(mu: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Gram matrix sum_x mu_x sqrt(f_k(x) f_l(x)), built one row k at a time."""
    k = matrix.shape[1]
    rho = np.zeros((k, k))
    for a in range(k):
        rho[a] = mu @ np.sqrt(matrix[:, a, None] * matrix)
    return rho


def conditional_information(mu: np.ndarray, matrix: np.ndarray) -> float:
    """Loop version of S(mu o f) - sum_x mu_x S(row_x)."""
    base = np.zeros(matrix.shape[1])
    for x in range(matrix.shape[0]):
        base += mu[x] * matrix[x]
    value = shannon(base)
    for x in range(matrix.shape[0]):
        value -= mu[x] * shannon(matrix[x])
    return value


def markov_block_entropy(system, depth: int) -> float:
    """Closed form S(mu) + (depth - 1) * sum_x mu_x sum_y eta(P[x, y])."""
    step = 0.0
    for x in range(system.n_states):
        step += system.stationary[x] * shannon(system.transition[x])
    return shannon(system.stationary) + (depth - 1) * step


def extremal_maximum(mu, f) -> float:
    """Largest information over the decompositions of every map states -> states.

    A map a(x) splits mu into its level sets; the information the level set
    index carries about the outcome of f is H(A) + H(K) - H(A, K) of the
    joint law q[a, k] = sum over x in level set a of mu_x f_k(x).  The
    maximum over all n^n maps is the one-time decomposition entropy.
    """
    mu = np.asarray(mu, dtype=float)
    response = np.asarray(f.response, dtype=float)
    n = mu.shape[0]
    best = 0.0
    for assignment in itertools.product(range(n), repeat=n):
        joint = np.zeros((n, response.shape[1]))
        for x, a in enumerate(assignment):
            joint[a] += mu[x] * response[x]
        value = shannon(joint.sum(axis=1)) + shannon(joint.sum(axis=0)) - shannon(joint)
        best = max(best, value)
    return best


def index_information(mu, decomposition: Decomposition, f) -> float:
    """Information the decomposition index carries about the outcome of f.

    The one-index evaluation that ``cnt_functional`` fuses, run alone: one
    ``check_recombines`` of mu, then both forms of the information
    cross-checked by ``_information`` on the decomposition's own weights
    and components, with nothing renormalized.  The sum over marginals of
    this, minus ``entropy_defect``, must equal ``cnt_functional`` float for
    float.
    """
    muv = decomposition.check_recombines(mu)
    matrix = _response_of(f, muv.shape[0])
    base = muv @ matrix
    outcome_rows = decomposition.components @ matrix
    return _information(decomposition.weights, base, outcome_rows)


def cnt_value(mu, weights, components, sizes, matrices) -> float:
    """Decomposition functional by explicit loops over the weight tensor.

    For each index axis, index value i of the marginal has weight m_i, the
    sum of the weights of every multi-index whose coordinate on that axis
    is i, and outcome law sum w * (component @ matrix) over those
    multi-indices, divided by m_i.  Indices of zero marginal weight are
    skipped.  The axis contributes its information S(mu @ matrix) - sum_i
    (m_i / sum m) S(law_i) and subtracts S(m) for the entropy defect; the
    defect adds back S(weights) once.
    """
    mu = np.asarray(mu, dtype=float)
    weights = np.asarray(weights, dtype=float)
    components = np.asarray(components, dtype=float)
    multi_indices = list(itertools.product(*(range(s) for s in sizes)))
    value = shannon(weights)
    for axis, matrix in enumerate(matrices):
        matrix = np.asarray(matrix, dtype=float)
        n_states, n_outcomes = matrix.shape
        marginal = [0.0] * sizes[axis]
        laws = [[0.0] * n_outcomes for _ in range(sizes[axis])]
        for flat, index in enumerate(multi_indices):
            i = index[axis]
            marginal[i] += weights[flat]
            for x in range(n_states):
                for k in range(n_outcomes):
                    laws[i][k] += weights[flat] * components[flat, x] * matrix[x, k]
        base = [0.0] * n_outcomes
        for x in range(n_states):
            for k in range(n_outcomes):
                base[k] += mu[x] * matrix[x, k]
        mass = sum(m for m in marginal if m > 0.0)
        information = shannon(base)
        for i, m in enumerate(marginal):
            if m > 0.0:
                information -= (m / mass) * shannon([v / m for v in laws[i]])
        value += information - shannon(marginal)
    return value


def induced_decomposition(mu, response, sizes) -> Decomposition:
    """Public ``Decomposition`` that one response matrix (states x cells) induces.

    Weights ``mu @ response``, normalized; components mu * g_a / mu(g_a),
    or mu itself for a cell of zero mass.
    """
    weights = mu @ response
    components = np.array(
        [
            mu * response[:, a] / weights[a] if weights[a] > 0.0 else mu
            for a in range(response.shape[1])
        ]
    )
    return Decomposition(weights / weights.sum(), components, sizes)


def identification_scan(mu, parts, n: int, budget: int, seed: int):
    """``cnt_search`` of two partitions, one candidate at a time.

    For every pair of maps range(n) -> range(n), in lexicographic order,
    the one-hot response of the joint codes induces a public
    ``Decomposition``, evaluated by ``cnt_functional``.  Then ``budget``
    random trials follow, each from one ``rng.dirichlet(..., size=n)`` draw
    of ``default_rng(SeedSequence(seed))``.  A candidate replaces the
    witness only with a strictly larger value.  Returns (best_value,
    witness_label, witness, negative_identifications, identifications).
    """
    sizes = (n, n)
    cells = n * n
    witness = trivial_decomposition(mu, 2)
    best, label = cnt_functional(mu, witness, parts), "trivial"
    negative = identifications = 0
    single_maps = list(itertools.product(range(n), repeat=n))
    for assignments in itertools.product(single_maps, repeat=2):
        response = np.eye(cells)[np.ravel_multi_index(assignments, sizes)]
        dec = induced_decomposition(mu, response, sizes)
        value = cnt_functional(mu, dec, parts)
        identifications += 1
        if value < -MI_FORM_TOL:
            negative += 1
        if value > best:
            best, label, witness = value, f"identification:{assignments}", dec
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for trial in range(budget):
        dec = induced_decomposition(mu, rng.dirichlet(np.ones(cells), size=n), sizes)
        value = cnt_functional(mu, dec, parts)
        if value > best:
            best, label, witness = value, f"random:{trial}", dec
    return best, label, witness, negative, identifications


def sample_words_rowwise(transition, stationary, response, depth: int, n_samples: int, seed: int):
    """Word counts by drawing every trajectory, with a row-wise inverse CDF.

    One generator seeded with ``SeedSequence(seed)`` gives one uniform per
    sample for the start state, then per time one for the symbol and,
    between times, one for the transition.  Each index is the number of
    entries of the gathered cumulative row (last entry set to 1.0) that lie
    below the uniform.
    """
    transition = np.asarray(transition, dtype=float)
    response = np.asarray(response, dtype=float)
    k = response.shape[1]
    cum_mu = np.cumsum(stationary)
    cum_mu[-1] = 1.0
    cum_p = np.cumsum(transition, axis=1)
    cum_p[:, -1] = 1.0
    cum_f = np.cumsum(response, axis=1)
    cum_f[:, -1] = 1.0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = np.searchsorted(cum_mu, rng.random(n_samples), side="right")
    codes = np.zeros(n_samples, dtype=np.int64)
    for step in range(depth):
        u = rng.random(n_samples)
        codes = codes * k + np.sum(cum_f[x] < u[:, None], axis=1)
        if step < depth - 1:
            u = rng.random(n_samples)
            x = np.sum(cum_p[x] < u[:, None], axis=1)
    return np.bincount(codes, minlength=k**depth)


def sample_words_by_groups(transition, stationary, response, depth: int, n_samples: int, seed: int):
    """Word counts by splitting (state, code) groups one at a time.

    Draws the multinomials of ``sampling.sample_words`` in the same order,
    from one generator seeded with ``SeedSequence(seed)``: the start counts
    over the stationary measure, then per time but the last one split of
    each group over its response row and, between those times, one over its
    transition row.  At the last time each group splits once over its row
    of ``transition @ response`` (rows normalized to sum to 1), the law of
    the last symbol given the state before the last transition; at depth 1
    there is no transition, and the one split is over the response row.
    Groups are kept in a dict keyed by (state, code) and visited in sorted
    order; groups that land on the same key after a transition are merged.
    """
    transition = np.asarray(transition, dtype=float)
    response = np.asarray(response, dtype=float)
    k = response.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # Rows normalized as PartitionOfUnity does: numpy's binomial draws with
    # 1 - p once p > 0.5, so a row off by an ulp would draw other counts.
    evolved = transition @ response
    evolved /= evolved.sum(axis=1, keepdims=True)
    start = rng.multinomial(n_samples, stationary)
    groups = {(x, 0): int(size) for x, size in enumerate(start) if size > 0}
    for step in range(depth):
        rows = response if step < depth - 1 or depth == 1 else evolved
        split = {}
        for (x, code), size in sorted(groups.items()):
            for a, part in enumerate(rng.multinomial(size, rows[x])):
                if part > 0:
                    split[(x, code * k + a)] = int(part)
        groups = split
        if step < depth - 2:
            moved = {}
            for (x, code), size in sorted(groups.items()):
                for y, part in enumerate(rng.multinomial(size, transition[x])):
                    if part > 0:
                        moved[(y, code)] = moved.get((y, code), 0) + int(part)
            groups = moved
    counts = np.zeros(k**depth, dtype=np.int64)
    for (_, code), size in groups.items():
        counts[code] += size
    return counts
