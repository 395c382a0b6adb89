"""Digest of command line output, for byte-identity checks between two trees.

    python3 tools/cli_digest.py [--src PATH] > digest.txt

Runs ``entropy_lab.cli.main`` in process and prints one ``sha256  argv``
line per run.  The hash covers the exit code, stdout and stderr.  The runs,
by category, in the order they run; the three error categories run
interleaved:

- Fixtures: every command on every fixture system and partition, in json,
  csv and table format.
- Workloads: every op that ``bench/workloads.generate`` builds for seeds 1-3.
- Error paths that exit 1: an unknown command; malformed numeric fields in
  a system and a partition; ``--out`` to a directory that does not exist;
  each setting a command does not read (``--units``, ``--word-cap`` and
  ``--dim-cap`` on ``validate``, the two caps on ``cnt``, ``--dim-cap``
  and ``--units`` on ``sample``); one --partition count outside each
  command's range (``validate`` with 9; ``rate``, ``compare``, ``report``
  and ``sample`` with 0 and 2; ``cnt`` with 0 and 3; ``sup`` with 1, which
  takes none); and four system files that must fail before any
  allocation: one that is not UTF-8, one with an integer literal longer
  than Python's 4 300-digit int-string limit, one with an integer beyond
  float range and one nested 100 000 arrays deep, past the JSON parser's
  recursion limit.
- Error paths that exit 2: a transition row that does not sum to 1; a
  negative ``--seed`` for ``sample`` and ``cnt``; a ``cnt --cap`` of 0 and
  of -1; a word or dimension cap below 1 (``rate --kind afl --word-cap 0``,
  ``rate --kind hud --dim-cap 0``, ``report --dim-cap -1``, ``sample
  --word-cap 0``); a partition ``{"uniform": 99999999999}``, whose count
  exceeds the default word cap; and ``sample --samples 10**20``, beyond the
  int64 range of the counts.
- Error paths that exit 3: ``rate --kind afl --nmax 12`` and ``rate --kind
  afl --word-cap 2 --nmax 3``, which stop at depths 12 and 2; ``cnt`` on a
  760-state ``{"bernoulli": ...}`` system, whose 760^1520 map tuples have
  too many digits to print and are written as a power; ``sample --depth
  4300`` of a ``{"uniform": 10}`` partition under a ``--word-cap`` of
  4 300 digits, whose 10^4300 words have one digit too many to print and
  are written as a power; and ``sup --kind kow --word-cap 1 --nmax 3`` on
  the three-state doubly stochastic chain, where the partition into
  singletons stops before depth 2.
- Degenerate shapes: ``cnt`` on a one-state system, whose decompositions
  have index sizes (1, 1) and which has one identification; ``cnt`` on a
  three-state system whose third state has stationary mass 1e-16, so that
  marginal weight sums fall in (0, PRUNE_TOL] and are pruned; ``cnt`` with
  ``--budget 300`` on the two-state chain, whose random trials span two
  chunks of ``SCAN_CHUNK`` (256) candidates; and ``rate --kind kow --nmax
  30`` and ``rate --kind afl --nmax 30`` on a ``{"uniform": 1}``
  partition, whose one word never passes a cap, so that only the depth
  bound of the caps stops them (at depths 22 and 13, exit 3).
- Rate estimates, in every format: ``--units bits`` on ``rate`` (each
  kind), ``compare``, ``report``, ``cnt`` and ``sup``; a ``rate --nmax 1``
  whose estimate is null; ``sup --kind kow --nmax 3`` on the three-state
  doubly stochastic chain with ``--word-cap 4``, where the partition into
  singletons stops at depth 2, before any candidate can be ranked, and
  with ``--word-cap 9``, where it stops at depth 3, so that all five
  candidates are ranked at depth 2; ``sup --kind afl --dim-cap 9 --nmax 3``
  on the same chain, whose singletons' ``afl`` side of 3^2 = 9 fits and of
  27 does not, so that every candidate is ranked at depth 2 on the
  ``dim_cap`` path; and ``compare`` and ``report`` with ``--word-cap 4
  --nmax 3``, where every kind stops at depth 3.  The ``--units bits``
  and ``--nmax 1`` runs exit 0, the others 3.

After these in-process runs, every
``demos/*.py`` runs as a subprocess with ``PYTHONPATH=<src>`` and the
pinned BLAS environment, and prints one ``sha256  demos/<name>`` line over
its exit code, stdout and stderr.
``--src`` picks the ``src`` directory that ``entropy_lab`` is imported
from, and the demos come from ``<src>/../demos``; fixtures and workloads
always come from this checkout, so two trees are compared with

    python3 tools/cli_digest.py --src OTHER/src > other.txt
    python3 tools/cli_digest.py > this.txt
    diff other.txt this.txt

``bench/`` is imported and never written to.  Workload, error-path and
degenerate-shape documents are written to a temporary directory whose path is replaced by
``<tmp>`` before hashing and printing.  An exception that escapes
``cli.main`` is hashed as its type and message in place of the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("json", "csv", "table")
KINDS = ("hud", "mak", "afl", "kow")
SEEDS = (1, 2, 3)
CHAIN = "fixtures/systems/two_state_chain.json"
BLUR = "fixtures/partitions/two_state_blur.json"
DOUBLY = "fixtures/systems/three_state_doubly.json"
ERROR_SYSTEMS = {
    "bad_row_sum": {"transition": [[0.6, 0.6], [0.5, 0.5]]},
    "ragged_transition": {"transition": [[0.5, 0.5], [1.0]]},
    "text_transition": {"transition": [["a"]]},
    "object_stationary": {"transition": [[1.0]], "stationary": {"a": 1}},
}
ERROR_PARTITIONS = {"text_response": {"response": [[0.5, "x"], [0.5, 0.5]]}}
RAW_ERROR_SYSTEMS = {
    "not_utf8": b"\xff{}",
    "int_over_digit_limit": b'{"transition": [[' + b"1" * 4301 + b"]]}",
    "int_beyond_float_range": b'{"transition": [[1' + b"0" * 400 + b"]]}",
    "nested_past_recursion_limit": b'{"transition": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
}
HUGE_UNIFORM_PARTITION = {"uniform": 99999999999}
PAST_DIGIT_LIMIT_SYSTEM = {"bernoulli": [1 / 760] * 760}
TWO_OUTCOME_PARTITION = {"uniform": 2}
TEN_OUTCOME_PARTITION = {"uniform": 10}
ONE_STATE_SYSTEM = {"transition": [[1.0]]}
ONE_STATE_PARTITION = {"response": [[0.25, 0.75]]}
TINY_MASS_SYSTEM = {
    "transition": [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0]],
    "stationary": [0.5, 0.4999999999999999, 1e-16],
}
TINY_MASS_PARTITION = {"response": [[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]]}
ONE_OUTCOME_PARTITION = {"uniform": 1}
UNREAD_SETTINGS = {
    ("validate", "--system", CHAIN): ("--units", "--word-cap", "--dim-cap"),
    ("cnt", "--system", CHAIN, "--partition", BLUR, "--seed", "1"): ("--word-cap", "--dim-cap"),
    ("sample", "--system", CHAIN, "--partition", BLUR, "--depth", "2", "--seed", "1"): (
        "--dim-cap",
        "--units",
    ),
}

CAPS_BELOW_ONE = (
    ("rate", "--system", CHAIN, "--partition", BLUR, "--kind", "afl", "--word-cap", "0"),
    ("rate", "--system", CHAIN, "--partition", BLUR, "--kind", "hud", "--dim-cap", "0"),
    ("report", "--system", CHAIN, "--partition", BLUR, "--dim-cap", "-1"),
    ("sample", "--system", CHAIN, "--partition", BLUR, "--depth", "2", "--seed", "1",
     "--word-cap", "0"),
)

PARTITION_COUNTS = {
    ("validate", "--system", CHAIN): (9,),
    ("rate", "--system", CHAIN, "--kind", "hud", "--nmax", "2"): (0, 2),
    ("compare", "--system", CHAIN, "--nmax", "2"): (0, 2),
    ("report", "--system", CHAIN, "--nmax", "2"): (0, 2),
    ("sample", "--system", CHAIN, "--depth", "2", "--seed", "1"): (0, 2),
    ("cnt", "--system", CHAIN, "--budget", "2", "--seed", "1"): (0, 3),
    ("sup", "--system", CHAIN, "--kind", "hud", "--nmax", "2"): (1,),
}


def fixture_argvs():
    """Every command on every fixture system x partition, in every format."""
    systems = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "fixtures" / "systems").glob("*.json"))
    parts = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "fixtures" / "partitions").glob("*.json"))
    for fmt, system in itertools.product(FORMATS, systems):
        tail = ["--format", fmt]
        yield ["validate", "--system", system, *tail]
        for kind in KINDS:
            yield ["sup", "--system", system, "--kind", kind, "--nmax", "3", *tail]
        for part in parts:
            head = ["--system", system, "--partition", part]
            yield ["validate", *head, *tail]
            for kind in KINDS:
                yield ["rate", *head, "--kind", kind, "--nmax", "6", *tail]
            yield ["compare", *head, "--nmax", "4", *tail]
            yield ["report", *head, "--nmax", "4", *tail]
            yield ["cnt", *head, "--budget", "20", "--seed", "1", *tail]
            yield ["sample", *head, "--depth", "4", "--samples", "2000", "--seed", "1", *tail]
        for first, second in itertools.combinations(parts, 2):
            yield ["cnt", "--system", system, "--partition", first, "--partition", second,
                   "--budget", "5", "--seed", "2", *tail]


def error_argvs(directory: Path):
    """Runs that end in an error, with their documents written to ``directory``."""
    yield ["frobnicate", "--system", CHAIN]
    yield ["rate", "--system", CHAIN, "--partition", BLUR, "--kind", "afl", "--nmax", "12"]
    for name, doc in ERROR_SYSTEMS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        yield ["validate", "--system", str(path)]
    for name, doc in ERROR_PARTITIONS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        yield ["validate", "--system", CHAIN, "--partition", str(path)]
    yield ["validate", "--system", CHAIN, "--out", str(directory / "absent" / "x.json")]
    yield ["sample", "--system", CHAIN, "--partition", BLUR, "--depth", "2", "--seed", "-1"]
    yield ["cnt", "--system", CHAIN, "--partition", BLUR, "--budget", "2", "--seed", "-3"]
    for budget in ("0", "-1"):
        yield ["cnt", "--system", CHAIN, "--partition", BLUR, "--seed", "1", "--cap", budget]
    for head, flags in UNREAD_SETTINGS.items():
        for flag in flags:
            yield [*head, flag, "8" if flag.endswith("cap") else "bits"]
    for argv in CAPS_BELOW_ONE:
        yield list(argv)
    for head, counts in PARTITION_COUNTS.items():
        for count in counts:
            yield [*head, *("--partition", BLUR) * count]
    yield ["rate", "--system", CHAIN, "--partition", BLUR, "--kind", "afl", "--word-cap", "2",
           "--nmax", "3"]
    system, part = directory / "past_digit_limit.json", directory / "two_outcomes.json"
    system.write_text(json.dumps(PAST_DIGIT_LIMIT_SYSTEM))
    part.write_text(json.dumps(TWO_OUTCOME_PARTITION))
    yield ["cnt", "--system", str(system), "--partition", str(part), "--seed", "1"]
    part = directory / "ten_outcomes.json"
    part.write_text(json.dumps(TEN_OUTCOME_PARTITION))
    yield ["sample", "--system", CHAIN, "--partition", str(part), "--depth", "4300", "--seed", "1",
           "--word-cap", str(10**4299)]
    yield ["sup", "--system", DOUBLY, "--kind", "kow", "--word-cap", "1", "--nmax", "3"]
    for name, raw in RAW_ERROR_SYSTEMS.items():
        path = directory / f"{name}.json"
        path.write_bytes(raw)
        yield ["validate", "--system", str(path)]
    path = directory / "huge_uniform.json"
    path.write_text(json.dumps(HUGE_UNIFORM_PARTITION))
    yield ["validate", "--system", CHAIN, "--partition", str(path)]
    yield ["sample", "--system", CHAIN, "--partition", BLUR, "--depth", "2", "--seed", "1",
           "--samples", str(10**20)]


def degenerate_argvs(directory: Path):
    """Runs on the smallest shapes, on a random family that spans chunks, and to the depth bound.

    Documents are written to ``directory``.
    """
    system, part = directory / "one_state.json", directory / "one_state_partition.json"
    system.write_text(json.dumps(ONE_STATE_SYSTEM))
    part.write_text(json.dumps(ONE_STATE_PARTITION))
    yield ["cnt", "--system", str(system), "--partition", str(part), "--budget", "2", "--seed", "1"]
    system, part = directory / "tiny_mass.json", directory / "tiny_mass_partition.json"
    system.write_text(json.dumps(TINY_MASS_SYSTEM))
    part.write_text(json.dumps(TINY_MASS_PARTITION))
    yield ["cnt", "--system", str(system), "--partition", str(part), "--budget", "3", "--seed", "1"]
    yield ["cnt", "--system", CHAIN, "--partition", BLUR, "--budget", "300", "--seed", "4"]
    part = directory / "one_outcome.json"
    part.write_text(json.dumps(ONE_OUTCOME_PARTITION))
    for kind in ("kow", "afl"):
        yield ["rate", "--system", CHAIN, "--partition", str(part), "--kind", kind, "--nmax", "30"]


def estimate_argvs():
    """Runs that convert units or read or truncate a rate estimate, in every format."""
    head = ["--system", CHAIN, "--partition", BLUR]
    for fmt in FORMATS:
        tail = ["--format", fmt]
        for kind in KINDS:
            yield ["rate", *head, "--kind", kind, "--nmax", "4", "--units", "bits", *tail]
        yield ["compare", *head, "--nmax", "4", "--units", "bits", *tail]
        yield ["report", *head, "--nmax", "4", "--units", "bits", *tail]
        yield ["cnt", *head, "--budget", "5", "--seed", "1", "--units", "bits", *tail]
        yield ["sup", "--system", CHAIN, "--kind", "kow", "--nmax", "3", "--units", "bits", *tail]
        yield ["rate", *head, "--kind", "kow", "--nmax", "1", *tail]
        for cap in ("4", "9"):
            yield ["sup", "--system", DOUBLY, "--kind", "kow", "--nmax", "3", "--word-cap", cap,
                   *tail]
        yield ["sup", "--system", DOUBLY, "--kind", "afl", "--nmax", "3", "--dim-cap", "9", *tail]
        for command in ("compare", "report"):
            yield [command, *head, "--word-cap", "4", "--nmax", "3", *tail]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding entropy_lab")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    if not (src / "entropy_lab" / "cli.py").is_file():
        print(f"error: no entropy_lab sources under {src}", file=sys.stderr)
        return 1

    sys.path.insert(0, str(ROOT / "bench"))
    import run  # bench/run.py: pinned BLAS environment and the in-process call

    os.environ.update(run.PINNED_ENV)
    sys.path.insert(0, str(src))
    import workloads

    from entropy_lab import cli

    def emit(argv, tmp=None):
        _, code, out, err = run.call(cli, argv)
        text = "\0".join((str(code), out, err))
        shown = " ".join(argv)
        if tmp is not None:
            text, shown = text.replace(tmp, "<tmp>"), shown.replace(tmp, "<tmp>")
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"{digest}  {shown}", flush=True)

    os.chdir(ROOT)
    for argv in fixture_argvs():
        emit(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                directory = Path(tmp) / f"{name}-{seed}"
                directory.mkdir()
                for op in workloads.generate(name, seed, directory):
                    emit(op.argv, tmp)
        directory = Path(tmp) / "errors"
        directory.mkdir()
        for argv in error_argvs(directory):
            emit(argv, tmp)
        directory = Path(tmp) / "degenerate"
        directory.mkdir()
        for argv in degenerate_argvs(directory):
            emit(argv, tmp)
    for argv in estimate_argvs():
        emit(argv)
    env = dict(os.environ, PYTHONPATH=str(src))
    for demo in sorted((src.parent / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
        text = "\0".join((str(done.returncode), done.stdout, done.stderr))
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  demos/{demo.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
