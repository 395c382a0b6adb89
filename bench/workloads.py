"""Seeded inputs, argument vectors and output checks of the benchmark workloads.

Every workload writes its own system and partition documents from a seed,
so the program under test only ever sees JSON files.  A seed fixes the
values; the shape of the input set (state counts, the sharp/unsharp
pattern, sizes per op) is the same for every seed, so two seeds give
different inputs that cost the same work.

Why these three:

* ``spectra``: ``report --nmax 9`` on 3-5 state chains, 3 unsharp to 1
  sharp partition.  All four kinds at depths 1-9 and 18 eigensolves up to
  512 x 512: the k^N x k^N density and eigensolve path.  A sharp partition
  makes its afl state diagonal at every depth (and its mak state at depth
  1), so the sharp share bounds what a diagonal shortcut can save.
* ``search``: ``cnt --budget 20`` on 3-state chains.  750 functional
  evaluations per op and no eigensolve: the identification scan, dominated
  by per-evaluation validation.
* ``sample``: ``sample --depth 10 --samples 250000`` on 4-state chains.
  Four RNG blocks per op; the only workload that reaches ``sampling``.

There is no timed ``sup`` sweep: its many small Python-level calls made
its median op time swing by up to 35 % between 28 s runs on a shared
2-vCPU host, more than any bound worth gating on.  ``spectra`` reaches the
same layers, and the smoke test still checks ``sup`` output.

Output checks use ``reference`` only, never the code being timed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference

TOL = 1e-9


@dataclass
class Op:
    """One command line invocation with the checks its result must pass."""

    doc: int
    argv: list
    check: Callable[[int, str], list]
    trace_check: Callable[[dict], list] = lambda counts: []
    shares: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    # Fixed per workload so the metric means the same thing on both sides of
    # a comparison; chosen to leave at least ten ops beyond it in one run.
    tail_level: float
    build: Callable


# ---------------------------------------------------------------- documents


def _labels(n):
    return [f"s{i}" for i in range(n)]


def _dense_chain(rng, n):
    return rng.dirichlet(np.full(n, 2.0), size=n)


def _unsharp(rng, n):
    a = rng.uniform(0.1, 0.9, size=n)
    return np.stack([a, 1.0 - a], axis=1)


def _sharp_cells(rng, n):
    order = rng.permutation(n)
    cut = int(rng.integers(1, n))
    return [sorted(int(x) for x in order[:cut]), sorted(int(x) for x in order[cut:])]


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _system_doc(transition):
    return {"states": _labels(transition.shape[0]), "transition": transition.tolist()}


def _partition(rng, directory, i, n, sharp):
    """Write a 2-outcome partition document; return (path, response matrix)."""
    if sharp:
        cells = _sharp_cells(rng, n)
        response = np.zeros((n, 2))
        for k, cell in enumerate(cells):
            response[cell, k] = 1.0
        doc = {"cells": [[f"s{x}" for x in cell] for cell in cells]}
    else:
        response = _unsharp(rng, n)
        doc = {"response": response.tolist()}
    return _write(directory / f"part{i}.json", doc), response


def parse_output(code, stdout, problems):
    if code != 0:
        problems.append(f"exit code {code}")
        return None
    try:
        return json.loads(stdout)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def expect_close(problems, what, got, want):
    if not abs(got - want) <= TOL:
        problems.append(f"{what}: got {got!r}, reference {want!r}")


# ------------------------------------------------------------------- checks


def sequence_checks(transition, response, nmax):
    """Check a report/compare document: ordering, depth-N mak and kow."""
    mu = reference.stationary(transition)
    want = {
        "mak": reference.mak(mu, transition, response, nmax),
        "kow": reference.kow(mu, transition, response, nmax),
    }

    def check(code, stdout):
        problems = []
        doc = parse_output(code, stdout, problems)
        if doc is None:
            return problems
        if doc.get("ordering_violations"):
            problems.append(f"ordering violations: {doc['ordering_violations']}")
        for kind, value in want.items():
            seq = doc["sequences"][kind]
            if seq["truncated_at"] is not None or len(seq["values"]) != nmax:
                problems.append(f"{kind} sequence truncated at {seq['truncated_at']}")
                continue
            expect_close(problems, f"{kind} at depth {nmax}", seq["values"][-1], value)
        return problems

    return check


def rate_check(transition, response, nmax):
    """Check a ``rate --kind kow`` document at its last depth."""
    mu = reference.stationary(transition)
    want = reference.kow(mu, transition, response, nmax)

    def check(code, stdout):
        problems = []
        doc = parse_output(code, stdout, problems)
        if doc is not None:
            expect_close(problems, f"kow at depth {nmax}", doc["sequence"]["values"][-1], want)
        return problems

    return check


def cnt_check(transition, response, budget):
    """identifications = n^(2n), trials = budget, 0 <= best <= hud(f) + hud(theta f)."""
    n = transition.shape[0]
    mu = reference.stationary(transition)
    ceiling = reference.hud(mu, response) + reference.hud(mu, transition @ response)

    def check(code, stdout):
        problems = []
        doc = parse_output(code, stdout, problems)
        if doc is None:
            return problems
        if doc["identifications"] != n ** (2 * n):
            problems.append(f"identifications {doc['identifications']} != {n ** (2 * n)}")
        if doc["random_trials"] != budget:
            problems.append(f"random_trials {doc['random_trials']} != {budget}")
        if not 0.0 <= doc["best_value"] <= ceiling + TOL:
            problems.append(f"best_value {doc['best_value']!r} outside [0, {ceiling!r}]")
        return problems

    return check


def sup_check(transition):
    """candidates = Bell(n); best rate >= the Markov rate the singletons reach."""
    n = transition.shape[0]
    rate = reference.markov_rate(reference.stationary(transition), transition)

    def check(code, stdout):
        problems = []
        doc = parse_output(code, stdout, problems)
        if doc is None:
            return problems
        if doc["candidates"] != reference.bell(n):
            problems.append(f"candidates {doc['candidates']} != {reference.bell(n)}")
        best = doc["estimate"]["last_increment"]
        if best < rate - TOL:
            problems.append(f"best increment {best!r} below the Markov rate {rate!r}")
        return problems

    return check


def sample_check(transition, response, depth, samples):
    """Counts add up, word count is k^N, TV to the reference law is in bound."""
    mu = reference.stationary(transition)
    law = reference.word_law(mu, transition, response, depth)
    bound = reference.tv_bound(law.shape[0], samples)

    def check(code, stdout):
        problems = []
        doc = parse_output(code, stdout, problems)
        if doc is None:
            return problems
        if doc["n_words"] != law.shape[0]:
            problems.append(f"n_words {doc['n_words']} != {law.shape[0]}")
            return problems
        counts = np.asarray(doc["counts"], dtype=float)
        if int(counts.sum()) != samples:
            problems.append(f"counts sum to {int(counts.sum())}, not {samples}")
        gap = float(np.max(np.abs(np.asarray(doc["analytic"]) - law)))
        if gap > TOL:
            problems.append(f"analytic law differs from the reference by {gap:.3e}")
        tv = 0.5 * float(np.sum(np.abs(counts / samples - law)))
        if tv > bound:
            problems.append(f"TV distance {tv!r} exceeds {bound!r}")
        return problems

    return check


def _count_check(name, want):
    def check(counts):
        got = counts.get(name)
        return [] if got == want else [f"{name} = {got}, expected {want}"]

    return check


# ---------------------------------------------------------------- workloads


def build_spectra(rng, directory: Path, tiny=False):
    nmax = 3 if tiny else 9
    ops = []
    for i in range(4 if tiny else 12):
        n = 3 + i % 3
        sharp = i % 4 == 3
        transition = _dense_chain(rng, n)
        system = _write(directory / f"sys{i}.json", _system_doc(transition))
        part, response = _partition(rng, directory, i, n, sharp)
        # mak and afl take one eigensolve per depth; hud, mak and kow one
        # refinement each, and a sharp afl a fourth through its diagonal path.
        eig = _count_check("entropy.eig_calls", 2 * nmax)
        refine = _count_check("partitions.refine_calls", (4 if sharp else 3) * nmax)
        ops.append(
            Op(
                doc=i,
                argv=["report", "--system", system, "--partition", part,
                      "--nmax", str(nmax), "--format", "json"],
                check=sequence_checks(transition, response, nmax),
                trace_check=lambda c, eig=eig, refine=refine: eig(c) + refine(c),
                shares={"sharp": float(sharp), "max_side": 2**nmax},
            )
        )
    return ops


def build_search(rng, directory: Path, tiny=False):
    n, budget = (2, 2) if tiny else (3, 20)
    evaluations = 1 + n ** (2 * n) + budget
    ops = []
    for i in range(4):
        transition = _dense_chain(rng, n)
        system = _write(directory / f"sys{i}.json", _system_doc(transition))
        part, response = _partition(rng, directory, i, n, sharp=False)
        ops.append(
            Op(
                doc=i,
                argv=["cnt", "--system", system, "--partition", part,
                      "--budget", str(budget), "--seed", str(int(rng.integers(2**31))),
                      "--format", "json"],
                check=cnt_check(transition, response, budget),
                trace_check=_count_check("dynamical.cnt_evaluations", evaluations),
                shares={"evaluations": evaluations},
            )
        )
    return ops


def build_sample(rng, directory: Path, tiny=False):
    depth, samples = (3, 5000) if tiny else (10, 250000)
    block = 1 << 16
    ops = []
    for i in range(4):
        transition = _dense_chain(rng, 4)
        system = _write(directory / f"sys{i}.json", _system_doc(transition))
        part, response = _partition(rng, directory, i, 4, sharp=False)
        ops.append(
            Op(
                doc=i,
                argv=["sample", "--system", system, "--partition", part,
                      "--depth", str(depth), "--samples", str(samples),
                      "--seed", str(int(rng.integers(2**31))), "--format", "json"],
                check=sample_check(transition, response, depth, samples),
                trace_check=_count_check("sampling.samples", samples),
                shares={"blocks": -(-samples // block)},
            )
        )
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectra", 0.90, build_spectra),
        Workload("search", 0.50, build_search),
        Workload("sample", 0.75, build_sample),
    )
}


def generate(name: str, seed: int, directory: Path, tiny=False) -> list:
    """Write the workload's documents for ``seed`` and return its ops in order."""
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return WORKLOADS[name].build(rng, directory, tiny)
