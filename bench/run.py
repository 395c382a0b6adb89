"""Benchmark of the ``entropy-lab`` command line tool, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads: spectra, search, sample (see ``workloads.py`` for why
each exists).  One client drives a closed loop: each op is an in-process
call of ``entropy_lab.cli.main(argv)`` on documents generated from
``--seed``, and the next op starts only after the previous one returned and
its output was checked.  BLAS is pinned to one thread.

``--trace 0`` prints the end-to-end metrics: ops per second (ops over their
summed wall time), median and tail op time, set-up time of a fresh process
(median of several), peak RSS and the share of ops whose output passed
every check.  ``--trace 1`` alternates traced and untraced ops over whole
cycles of the input set and prints per-layer counts and self times per op,
plus traced/untraced throughput; the spans go to
``.bench_work/spans-<workload>.npz``.

The last stdout line is the JSON result; the line before it records the
environment, the input shares and the op counts of the run.  Exits 2
without a result when the ``entropy_lab`` sources are not next to this
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def declared_metrics(trace) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in definition["per_layer" if trace else "end_to_end"]}


def call(cli, argv):
    """Run one op in process; return (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Checker:
    """Applies an op's output checks; later outputs of a document must match its first byte for byte."""

    def __init__(self):
        self.digests = {}
        self.failed = 0
        self.problems = []

    def __call__(self, op, code, stdout, stderr, extra=()):
        problems = list(op.check(code, stdout)) + list(extra)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self.digests.setdefault(op.doc, digest) != digest:
            problems.append("output differs from an earlier run of the same document")
        if problems:
            self.failed += 1
            self.problems.append(f"doc {op.doc} {op.argv[0]}: {problems} {stderr.strip()}")


def measure_setup(op) -> float:
    """Median set-up time over fresh processes, each importing the CLI and parsing op's documents."""
    docs = [op.argv[i + 1] for i, a in enumerate(op.argv) if a in ("--system", "--partition")]
    env = dict(os.environ, **PINNED_ENV)
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), str(SRC), *docs],
            capture_output=True, text=True, env=env, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def nearest_rank(values, level):
    ordered = sorted(values)
    return ordered[max(math.ceil(level * len(ordered)) - 1, 0)]


def untraced_loop(cli, ops, seconds, check):
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        op = ops[len(times) % len(ops)]
        elapsed, code, out, err = call(cli, op.argv)
        times.append(elapsed)
        check(op, code, out, err)
    return times


def traced_loop(cli, ops, seconds, check, tracer_module):
    """Pairs of traced and untraced runs of each document, over whole cycles of the input set."""
    tracer = tracer_module.Tracer()
    summaries, spans, traced_s, untraced_s = [], [], 0.0, 0.0
    start = time.perf_counter()
    while len(summaries) % len(ops) or not summaries or time.perf_counter() - start < seconds:
        op = ops[len(summaries) % len(ops)]
        tracer.install()
        try:
            elapsed, code, out, err = call(cli, op.argv)
        finally:
            tracer.uninstall()
        op_spans, observed = tracer.take()
        summary = tracer_module.summarize(tracer.names, op_spans, observed)
        check(op, code, out, err, extra=op.trace_check(summary))
        summaries.append(summary)
        spans.append(op_spans)
        traced_s += elapsed
        elapsed, code, out, err = call(cli, op.argv)
        check(op, code, out, err)
        untraced_s += elapsed
    metrics = tracer_module.per_op(summaries)
    metrics["trace.overhead_ratio"] = untraced_s / traced_s
    return metrics, tracer.names, spans


def write_spans(path, names, spans):
    import numpy as np

    np.savez(
        path,
        names=np.array(names),
        op=np.concatenate([np.full(len(s[0]), i, dtype=np.int32) for i, s in enumerate(spans)]),
        name=np.concatenate([s[0] for s in spans]),
        parent=np.concatenate([s[1] for s in spans]),
        start=np.concatenate([s[2] for s in spans]),
        end=np.concatenate([s[3] for s in spans]),
    )


def measure(cli, workload, ops, seconds, trace):
    """Warm up, then time ops for ``seconds``.

    Returns (attempted, failed, correct, metrics, record); the warm-up op is
    checked but not counted as attempted.
    """
    import tracer as tracer_module  # imports numpy, so only after the BLAS pin

    check = Checker()
    first_op_s, code, out, err = call(cli, ops[0].argv)
    check(ops[0], code, out, err)
    warmup_failed = check.failed
    record = {"first_op_s": first_op_s}
    if trace:
        values, names, spans = traced_loop(cli, ops, seconds, check, tracer_module)
        attempted = 2 * len(spans)
        WORK.mkdir(exist_ok=True)
        write_spans(WORK / f"spans-{workload.name}.npz", names, spans)
        record["traced_ops"] = len(spans)
    else:
        setup_s = measure_setup(ops[0])
        times = untraced_loop(cli, ops, seconds, check)
        attempted = len(times)
        level = workload.tail_level
        values = {
            "throughput_ops_s": len(times) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": nearest_rank(times, level),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - (check.failed - warmup_failed)) / attempted,
        }
        record.update(
            ops=attempted,
            tail_level=level,
            ops_beyond_tail=attempted - math.ceil(level * attempted),
        )
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in declared_metrics(trace).items()
    }
    record["problems"] = check.problems[:5]
    return attempted, check.failed - warmup_failed, check.failed == 0, metrics, record


def input_shares(ops):
    keys = ops[0].shares
    return {k: sum(op.shares[k] for op in ops) / len(ops) for k in keys}


def environment(seed):
    import numpy as np

    sources = sorted((SRC / "entropy_lab").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "source_sha256": digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": int(PINNED_ENV["OPENBLAS_NUM_THREADS"]),
        "clients": 1,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("spectra", "search", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "entropy_lab" / "cli.py").is_file():
        print(f"error: no entropy_lab sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported.
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import workloads
    from entropy_lab import cli

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        ops = workloads.generate(args.workload, args.seed, Path(tmp))
        workload = workloads.WORKLOADS[args.workload]
        attempted, failed, correct, metrics, record = measure(
            cli, workload, ops, args.seconds, args.trace
        )
    record.update(workload=args.workload, trace=args.trace, shares=input_shares(ops))
    record.update(environment(args.seed))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
