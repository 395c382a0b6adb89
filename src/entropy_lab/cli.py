"""Command line front end.

    entropy-lab <command> --system SYSTEM.json [options]

Commands: validate, rate, compare, cnt, sample, sup, report.  Each takes
--system, --format and --out, plus only the settings it reads, which its JSON
``config`` block echoes: --units (rate, compare, cnt, sup, report), --word-cap
(rate, compare, sample, sup, report), --dim-cap (rate, compare, sup, report).
--partition is taken 0-8 times by validate, 1-2 times by cnt, never by sup and
once by the others.
Exit codes: 0 success, 1 usage or document error, 2 validation error, 3 a cap
truncated the computation, 4 an internal entropy inequality was violated.

``build_parser`` states each command's settings and partition count.  ``main``
frames every command: it loads the system and the partitions, calls the
handler ``cmd_<name>(args, system, parts)``, which only computes a Report and
an exit code, heads the document with ``command`` and ``config`` and renders it.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from ._errors import (
    CapExceededError,
    DocumentError,
    InequalityViolationError,
    ValidationError,
)
from .documents import load_partition, load_system, system_to_document
from .dynamical import (
    DEFAULT_DIM_CAP,
    DEFAULT_ENUMERATION_CAP,
    EntropyKind,
    cnt_search,
    entropy_sequence,
    sup_over_sharp,
)
from .partitions import (
    DEFAULT_WORD_CAP,
    distribution,
    refine_afl,
    word_from_code,
    word_label,
)
from .reports import Report, convert_units
from .sampling import empirical_distribution, sample_words, tv_bound, tv_distance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_INEQUALITY = 4

ORDER_TOL = 1e-9
_KIND_NAMES = [k.value for k in EntropyKind]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by later ``main`` calls."""
    parser = _Parser(prog="entropy-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"entropy-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p, *settings, partitions=(0, 0)):
        """Add the shared flags; ``partitions`` is the (least, most) --partition count."""
        p.add_argument("--system", required=True, help="system document (JSON)")
        least, most = partitions
        if most:
            count = (
                f"exactly {least}" if least == most
                else f"{least} or {most}" if most == least + 1
                else f"{least} to {most}"
            )
            p.add_argument(
                "--partition",
                action="append",
                dest="partitions",
                metavar="PARTITION",
                help=f"partition document (JSON); this command takes {count}",
            )
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.set_defaults(partition_range=partitions)
        for add in settings:
            add(p)

    def units(p):
        p.add_argument("--units", choices=("nats", "bits"), default="nats")

    def word_cap(p):
        p.add_argument(
            "--word-cap", type=int, default=DEFAULT_WORD_CAP, help="most words k^N, for every kind"
        )

    def dim_cap(p):
        p.add_argument(
            "--dim-cap",
            type=int,
            default=DEFAULT_DIM_CAP,
            help="largest matrix side diagonalized: n for mak, k^N for afl; "
            "hud and kow diagonalize nothing",
        )

    p = sub.add_parser("validate", help="parse and validate documents")
    common(p, partitions=(0, 8))

    p = sub.add_parser("rate", help="entropy sequence and rate estimate of one kind")
    common(p, units, word_cap, dim_cap, partitions=(1, 1))
    p.add_argument("--kind", choices=_KIND_NAMES, required=True)
    p.add_argument("--nmax", type=int, default=8)

    p = sub.add_parser("compare", help="all entropy kinds side by side with ordering checks")
    common(p, units, word_cap, dim_cap, partitions=(1, 1))
    p.add_argument("--nmax", type=int, default=4)

    p = sub.add_parser("cnt", help="two-time decomposition-functional search")
    common(p, units, partitions=(1, 2))
    p.add_argument("--budget", type=int, default=200, help="random decompositions after the scan")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)

    p = sub.add_parser("sample", help="Monte Carlo word sampling against the analytic law")
    common(p, word_cap, partitions=(1, 1))
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("sup", help="maximize the rate estimate over sharp partitions")
    common(p, units, word_cap, dim_cap)
    p.add_argument("--kind", choices=_KIND_NAMES, required=True)
    p.add_argument("--nmax", type=int, default=4)

    p = sub.add_parser("report", help="full document: summaries, sequences, estimates")
    common(p, units, word_cap, dim_cap, partitions=(1, 1))
    p.add_argument("--nmax", type=int, default=4)

    return parser


def _load_partitions(args, system):
    least, most = args.partition_range
    paths = getattr(args, "partitions", None) or []
    if not least <= len(paths) <= most:
        expected = str(least) if least == most else f"{least}..{most}"
        raise _UsageError(f"{args.command} takes {expected} --partition arguments")
    return [load_partition(p, system) for p in paths]


# Keys of the JSON config block, in order; a command echoes the ones it has set.
_CONFIG_KEYS = (
    "word_cap", "dim_cap", "units", "system", "partitions",
    "kind", "nmax", "budget", "seed", "depth", "samples", "cap",
)


def _config_doc(args) -> dict:
    values = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    return {"version": __version__} | {k: v for k, v in values.items() if v is not None}


def _partition_doc(part) -> dict:
    return {
        "labels": list(part.labels),
        "n_outcomes": part.n_outcomes,
        "sharp": part.is_sharp(),
        "response": part.response.tolist(),
    }


def _sequence_doc(seq, units) -> dict:
    return {
        "kind": seq.kind.value,
        "n": list(range(1, seq.n_max + 1)),
        "values": [convert_units(float(v), units) for v in seq.values],
        "increments": [convert_units(float(v), units) for v in seq.increments],
        "ratios": [convert_units(float(v), units) for v in seq.ratios],
        "truncated_at": seq.truncated_at,
    }


def _estimate_doc(seq, units) -> dict | None:
    """The rate estimates of a sequence, its tail; None below two values."""
    if seq.n_max < 2:
        return None
    return {
        "kind": seq.kind.value,
        "depth": seq.n_max,
        "last_increment": convert_units(float(seq.increments[-1]), units),
        "last_ratio": convert_units(float(seq.ratios[-1]), units),
    }


def cmd_validate(args, system, parts):
    doc = {
        "system": system_to_document(system),
        "partitions": [_partition_doc(p) for p in parts],
    }
    rows = [(label, float(system.stationary[i])) for i, label in enumerate(system.states)]
    summary = [
        f"system: {len(system.states)} states, all documents valid",
        f"partitions: {len(parts)}",
    ]
    return Report(doc, ["state", "stationary"], rows, summary), EXIT_OK


def _truncation(seqs, summary: list) -> int:
    """Exit code of a command that reports ``seqs``: 3 after noting their first cap, else 0."""
    capped = [seq.truncated_at for seq in seqs if seq.truncated_at is not None]
    if not capped:
        return EXIT_OK
    summary.append(f"truncated: depth {min(capped)} exceeded a cap")
    return EXIT_CAP


def _sequence_block(seq, units, summary: list) -> tuple[dict, int]:
    """The ``sequence`` and ``estimate`` of ``seq`` and its exit code; lines go to ``summary``."""
    block = {"sequence": _sequence_doc(seq, units), "estimate": _estimate_doc(seq, units)}
    summary += [f"kind = {seq.kind.value}", f"units = {units}"]
    if block["estimate"]:
        summary.append(f"rate (last increment) = {block['estimate']['last_increment']!r}")
        summary.append(f"rate (last ratio) = {block['estimate']['last_ratio']!r}")
    return block, _truncation([seq], summary)


def cmd_rate(args, system, parts):
    (part,) = parts
    kind = EntropyKind(args.kind)
    seq = entropy_sequence(
        system, part, kind, args.nmax, word_cap=args.word_cap, dim_cap=args.dim_cap
    )
    summary = []
    doc, code = _sequence_block(seq, args.units, summary)
    sdoc = doc["sequence"]
    rows = list(zip(sdoc["n"], sdoc["values"], sdoc["increments"], sdoc["ratios"]))
    return Report(doc, ["N", "s_N", "increment", "ratio"], rows, summary), code


def _ordering_violations(seqs: dict, n: int, units: str) -> list:
    """Check hud <= mak and hud <= afl <= kow at 0-based depth index n.

    The check is in nats against ``ORDER_TOL``; a violation reports its values in ``units``.
    """
    hud = seqs[EntropyKind.HUD].values
    mak = seqs[EntropyKind.MAK].values
    afl = seqs[EntropyKind.AFL].values
    kow = seqs[EntropyKind.KOW].values
    out = []
    for name, low, high in (
        ("hud<=mak", hud[n], mak[n]),
        ("hud<=afl", hud[n], afl[n]),
        ("afl<=kow", afl[n], kow[n]),
    ):
        if low > high + ORDER_TOL:
            out.append({
                "depth": n + 1,
                "check": name,
                "low": convert_units(float(low), units),
                "high": convert_units(float(high), units),
            })
    return out


def _all_kinds(args, system, part, intro: list, ordering: str, ok: str):
    """compare and report: every kind to --nmax, ordering checked at each shared depth."""
    seqs = {
        kind: entropy_sequence(
            system, part, kind, args.nmax, word_cap=args.word_cap, dim_cap=args.dim_cap
        )
        for kind in EntropyKind
    }
    common_depth = min(s.n_max for s in seqs.values())
    violations = [
        v for i in range(common_depth) for v in _ordering_violations(seqs, i, args.units)
    ]
    docs = {k.value: _sequence_doc(s, args.units) for k, s in seqs.items()}
    doc = {
        "sequences": docs,
        "estimates": {k.value: _estimate_doc(s, args.units) for k, s in seqs.items()},
        "ordering_violations": violations,
    }
    rows = [
        (
            i + 1,
            *(docs[name]["values"][i] for name in _KIND_NAMES),
            "VIOLATED" if any(v["depth"] == i + 1 for v in violations) else "ok",
        )
        for i in range(common_depth)
    ]
    summary = [
        *intro,
        f"units = {args.units}",
        ordering + (ok if not violations else f"{len(violations)} VIOLATIONS"),
    ]
    code = _truncation(seqs.values(), summary)
    if violations:  # an ordering violation outranks a cap
        code = EXIT_INEQUALITY
    return Report(doc, ["N", *_KIND_NAMES, "ordering"], rows, summary), code


def cmd_compare(args, system, parts):
    return _all_kinds(
        args, system, *parts, [], "ordering hud<=mak, hud<=afl<=kow: ", "all depths ok"
    )


def cmd_report(args, system, parts):
    (part,) = parts
    intro = [f"system of {system.n_states} states, partition with {part.n_outcomes} outcomes"]
    report, code = _all_kinds(args, system, part, intro, "ordering: ", "ok")
    head = {"system": system_to_document(system), "partition": _partition_doc(part)}
    report.doc = head | report.doc
    return report, code


def cmd_cnt(args, system, parts):
    result = cnt_search(system, *parts, budget=args.budget, seed=args.seed, cap=args.cap)
    witness = result.witness
    doc = {
        "best_value": convert_units(result.best_value, args.units),
        "witness": result.witness_label,
        "index_sizes": list(witness.index_sizes),
        "witness_weights": witness.weights.tolist(),
        "negative_identifications": result.negative_identifications,
        "identifications": result.identifications,
        "random_trials": result.random_trials,
    }
    rows = [
        (str(word_from_code(i, witness.index_sizes[0], witness.arity)), float(w))
        for i, w in enumerate(witness.weights)
        if w > 0.0
    ]
    summary = [
        f"best value = {doc['best_value']!r} ({args.units})",
        f"witness = {result.witness_label}",
        f"negative identifications = {result.negative_identifications} "
        f"of {result.identifications}",
    ]
    return Report(doc, ["index", "weight"], rows, summary), EXIT_OK


def cmd_sample(args, system, parts):
    (part,) = parts
    counts = sample_words(
        system, part, args.depth, args.samples, args.seed, word_cap=args.word_cap
    )
    empirical = empirical_distribution(counts)
    refined = refine_afl(system, part, args.depth, word_cap=args.word_cap)
    analytic = distribution(system.stationary, refined)
    tv = tv_distance(empirical, analytic)
    bound = tv_bound(counts.shape[0], args.samples)
    doc = {
        "n_words": int(counts.shape[0]),
        "tv_distance": tv,
        "tv_bound": bound,
        "within_bound": bool(tv <= bound),
    }
    if counts.shape[0] <= 1024:
        doc["counts"] = counts.tolist()
        doc["empirical"] = empirical.tolist()
        doc["analytic"] = analytic.tolist()
    top = np.argsort(-analytic, kind="stable")[:16]
    rows = [
        (
            word_label(part, word_from_code(int(i), part.n_outcomes, args.depth)),
            int(counts[i]),
            float(empirical[i]),
            float(analytic[i]),
        )
        for i in top
    ]
    summary = [
        f"samples = {args.samples}, words = {counts.shape[0]}",
        f"tv distance = {tv!r}",
        f"reference bound = {bound!r} ({'within' if tv <= bound else 'EXCEEDED'})",
    ]
    return Report(doc, ["word", "count", "empirical", "analytic"], rows, summary), EXIT_OK


def cmd_sup(args, system, parts):
    kind = EntropyKind(args.kind)
    result = sup_over_sharp(system, kind, args.nmax, word_cap=args.word_cap, dim_cap=args.dim_cap)
    cells_labeled = [[system.states[x] for x in cell] for cell in result.cells]
    summary = [f"candidates evaluated = {result.candidates}"]
    block, code = _sequence_block(result.sequence, args.units, summary)
    doc = {"cells": cells_labeled, **block, "candidates": result.candidates}
    rows = [(i, "+".join(cell)) for i, cell in enumerate(cells_labeled)]
    return Report(doc, ["cell", "states"], rows, summary), code


_COMMANDS = {
    "validate": cmd_validate,
    "rate": cmd_rate,
    "compare": cmd_compare,
    "cnt": cmd_cnt,
    "sample": cmd_sample,
    "sup": cmd_sup,
    "report": cmd_report,
}


_ERROR_EXITS = {
    _UsageError: EXIT_USAGE,
    DocumentError: EXIT_USAGE,
    ValidationError: EXIT_VALIDATION,
    CapExceededError: EXIT_CAP,
    InequalityViolationError: EXIT_INEQUALITY,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        system = load_system(args.system)
        parts = _load_partitions(args, system)
        report, code = _COMMANDS[args.command](args, system, parts)
    except tuple(_ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _ERROR_EXITS.items() if isinstance(exc, cls))
    report.doc = {"command": args.command, "config": _config_doc(args)} | report.doc
    text = report.render(args.format)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
