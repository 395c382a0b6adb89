"""Outside-in tracer for the ``entropy_lab`` layers.

``Tracer.install`` replaces every public function of a layer module, and
every public method and ``__post_init__`` of a class defined there, by a
wrapper that records a span.  Modules bind each other's functions by name
(``from .partitions import refine_afl``), so the wrapper is installed on
every ``entropy_lab.*`` module attribute, and in every module-level dict,
that holds the original; a patch on the defining module alone would miss
those calls.  Private helpers are not wrapped: their time counts as self
time of the public function that called them.

Spans (name, parent, start, end) are kept in flat arrays and handed out per
op by ``take``; ``summarize`` turns one op's spans into per-layer counts and
self times.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "entropy_lab"
LAYERS = (
    "cli",
    "documents",
    "systems",
    "partitions",
    "entropy",
    "decompositions",
    "dynamical",
    "sampling",
    "reports",
)
VALIDATORS = ("entropy.as_prob_vector", "entropy.as_stochastic_matrix", "entropy.as_density_matrix")


def _layer_of(fn):
    module = getattr(fn, "__module__", "") or ""
    head, _, layer = module.partition(".")
    return layer if head == PACKAGE and layer in LAYERS else None


def _is_traced(name, value):
    return inspect.isfunction(value) and not name.startswith("_") and _layer_of(value)


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.observed: list[tuple] = []
        self._patches = None

    # ------------------------------------------------------------ wrapping

    def _wrapper(self, fn, name, observe):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _plan(self):
        """(owner, key, original, wrapper) for every place a traced callable is bound."""
        wrappers = {}

        def wrap(fn, label):
            if fn not in wrappers:
                name = f"{_layer_of(fn)}.{label}"
                wrappers[fn] = self._wrapper(fn, name, OBSERVERS.get(name))
            return wrappers[fn]

        plan = []
        for key, module in list(sys.modules.items()):
            if key != PACKAGE and not key.startswith(PACKAGE + "."):
                continue
            for attr, value in vars(module).items():
                if _is_traced(attr, value):
                    plan.append((module, attr, value, wrap(value, value.__name__)))
                elif inspect.isclass(value) and value.__module__ == key and _layer_of(value):
                    for meth, fn in vars(value).items():
                        if inspect.isfunction(fn) and (meth == "__post_init__" or not meth.startswith("_")):
                            label = value.__name__ if meth == "__post_init__" else f"{value.__name__}.{meth}"
                            plan.append((value, meth, fn, wrap(fn, label)))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for item_key, item in value.items():
                        if _is_traced(getattr(item, "__name__", "_"), item):
                            plan.append((value, item_key, item, wrap(item, item.__name__)))
        return plan

    def install(self):
        """Wrap every traced callable of the loaded ``entropy_lab`` modules."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, key, _, wrapper in self._patches:
            _assign(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            _assign(owner, key, original)

    # --------------------------------------------------------------- spans

    def take(self):
        """Return this op's spans and observations, then start afresh."""
        spans = (
            np.frombuffer(self._name, dtype=np.int32).copy(),
            np.frombuffer(self._parent, dtype=np.int32).copy(),
            np.frombuffer(self._start, dtype=np.float64).copy(),
            np.frombuffer(self._end, dtype=np.float64).copy(),
        )
        observed = self.observed
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        del self._stack[1:]
        self.observed = []
        return spans, observed


# ---------------------------------------------------------------- observers
# Called after a traced call returns, with its positional arguments and its
# result; each appends (key, value) pairs that summarize() folds into counts.


def _eig(tracer, args, result):
    m = np.asarray(args[0])
    diagonal = np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))
    tracer.observed.append(("eig", (m.shape[0], diagonal)))


def _rho(tracer, args, result):
    tracer.observed.append(("rho", result.shape[0]))


def _refine(tracer, args, result):
    tracer.observed.append(("words", result.n_words))


def _sequence(tracer, args, result):
    tracer.observed.append(("sequence", (result.n_max, result.truncated_at is not None)))


def _samples(tracer, args, result):
    tracer.observed.append(("samples", int(result.sum())))


def _render(tracer, args, result):
    tracer.observed.append(("bytes_out", len(result.encode())))


OBSERVERS = {
    "entropy.symmetric_eigenvalues": _eig,
    "dynamical.rho_mak": _rho,
    "dynamical.rho_afl": _rho,
    "partitions.refine_afl": _refine,
    "partitions.refine_mak": _refine,
    "dynamical.entropy_sequence": _sequence,
    "sampling.sample_words": _samples,
    "reports.Report.render": _render,
}


def self_times(parents, starts, ends):
    """Duration of each span minus the durations of its direct children."""
    durations = ends - starts
    child = np.zeros_like(durations)
    inner = parents >= 0
    np.add.at(child, parents[inner], durations[inner])
    return durations - child


def summarize(names: list, spans, observed) -> dict:
    """Per-layer counts and self times of one op."""
    ids, parents, starts, ends = spans
    own = self_times(parents, starts, ends)
    name_table = np.array(names, dtype=object)
    layer_table = np.array([n.partition(".")[0] for n in names], dtype=object)

    def having(table_mask):
        return np.asarray(table_mask, dtype=bool)[ids] if len(names) else np.zeros(0, bool)

    def is_name(*fn_names):
        return having(np.isin(name_table, fn_names))

    def in_layer(layer):
        return having(layer_table == layer)

    def self_s(mask):
        return float(own[mask].sum())

    is_eig = is_name("entropy.symmetric_eigenvalues")
    is_validate = is_name(*VALIDATORS)
    is_rho = is_name("dynamical.rho_mak", "dynamical.rho_afl")
    is_mi = is_name("dynamical.mutual_information")
    is_cnt = is_name("dynamical.cnt_functional")

    # Validations made inside a cnt_functional call; parents precede children.
    cnt_flags = is_cnt.tolist()
    under_cnt = [False] * len(ids)
    for i, p in enumerate(parents.tolist()):
        under_cnt[i] = p >= 0 and (under_cnt[p] or cnt_flags[p])
    under_cnt = np.array(under_cnt, dtype=bool)

    values = {}
    for key, value in observed:
        values.setdefault(key, []).append(value)
    eig = values.get("eig", [])
    sequences = values.get("sequence", [])
    evaluations = int(is_cnt.sum())
    # Ratios are kept as (numerator, denominator) so several ops can be pooled.
    return {
        "entropy.eig_calls": int(is_eig.sum()),
        "entropy.eig_max_side": max((s for s, _ in eig), default=0),
        "entropy.eig_flops_computed": sum(s**3 for s, _ in eig),
        "entropy.eig_diagonal_ratio": (sum(d for _, d in eig), len(eig)),
        "entropy.eig_self_s": self_s(is_eig),
        "dynamical.rho_calls": int(is_rho.sum()),
        "dynamical.rho_max_side": max(values.get("rho", []), default=0),
        "dynamical.rho_bytes_computed": sum(8 * s * s for s in values.get("rho", [])),
        "dynamical.rho_self_s": self_s(is_rho),
        "entropy.validate_calls": int(is_validate.sum()),
        "entropy.validate_self_s": self_s(is_validate),
        "entropy.self_s": self_s(in_layer("entropy")),
        "dynamical.mi_calls": int(is_mi.sum()),
        "dynamical.mi_self_s": self_s(is_mi),
        "dynamical.cnt_evaluations": evaluations,
        "dynamical.validations_per_eval": (int((is_validate & under_cnt).sum()), evaluations),
        "decompositions.calls": int(in_layer("decompositions").sum()),
        "decompositions.self_s": self_s(in_layer("decompositions")),
        "partitions.refine_calls": int(is_name("partitions.refine_afl", "partitions.refine_mak").sum()),
        "partitions.words_materialized": sum(values.get("words", [])),
        "partitions.self_s": self_s(in_layer("partitions")),
        "dynamical.sequence_values": sum(n for n, _ in sequences),
        "dynamical.truncated_ratio": (sum(t for _, t in sequences), len(sequences)),
        "dynamical.self_s": self_s(in_layer("dynamical")),
        "sampling.samples": sum(values.get("samples", [])),
        "sampling.self_s": self_s(in_layer("sampling")),
        "documents.calls": int(in_layer("documents").sum()),
        "documents.self_s": self_s(in_layer("documents")),
        "systems.calls": int(in_layer("systems").sum()),
        "systems.self_s": self_s(in_layer("systems")),
        "reports.bytes_out": sum(values.get("bytes_out", [])),
        "reports.self_s": self_s(in_layer("reports")),
        "cli.self_s": self_s(in_layer("cli")),
    }


def per_op(summaries: list) -> dict:
    """Pool op summaries: maxima stay maxima, ratios pool their parts, the rest average."""
    out = {}
    for key in summaries[0]:
        items = [s[key] for s in summaries]
        if key.endswith("_max_side"):
            out[key] = max(items)
        elif isinstance(items[0], tuple):
            num, den = sum(i[0] for i in items), sum(i[1] for i in items)
            out[key] = num / den if den else 0.0
        else:
            out[key] = sum(items) / len(items)
    return out
