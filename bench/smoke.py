"""Smoke self-test of the benchmark, with no timing assertions.

    python3 bench/smoke.py

Runs every workload at tiny sizes through the same measuring code as
``run.py``, untraced and traced, with all output checks; then each of the
seven CLI commands once on ``fixtures/``, checked against ``reference``.
Exits 1 and lists the problems if anything fails.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

import run


def fixture_ops(workloads, np):
    """One op per CLI command on the checked-in fixtures, with its check."""
    fx = run.ROOT / "fixtures"
    chain = str(fx / "systems" / "two_state_chain.json")
    blur = str(fx / "partitions" / "two_state_blur.json")
    doubly = str(fx / "systems" / "three_state_doubly.json")
    cycle = str(fx / "systems" / "three_cycle.json")
    cycle_cells = str(fx / "partitions" / "three_cycle_extremal.json")
    p_chain = np.array([[0.9, 0.1], [0.2, 0.8]])
    f_blur = np.array([[0.8, 0.2], [0.3, 0.7]])
    p_doubly = np.array([[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]])
    p_cycle = np.roll(np.eye(3), 1, axis=1)

    def validate_check(code, stdout):
        problems = []
        doc = workloads.parse_output(code, stdout, problems)
        if doc is not None:
            workloads.expect_close(problems, "stationary[0]", doc["system"]["stationary"][0], 2.0 / 3.0)
        return problems

    def argv(*args):
        return [*args, "--format", "json"]

    return [
        ("validate", argv("validate", "--system", chain, "--partition", blur), validate_check),
        ("rate", argv("rate", "--system", chain, "--partition", blur, "--kind", "kow", "--nmax", "5"),
         workloads.rate_check(p_chain, f_blur, 5)),
        ("compare", argv("compare", "--system", chain, "--partition", blur, "--nmax", "4"),
         workloads.sequence_checks(p_chain, f_blur, 4)),
        ("cnt", argv("cnt", "--system", chain, "--partition", blur, "--budget", "5", "--seed", "1"),
         workloads.cnt_check(p_chain, f_blur, 5)),
        ("sample", argv("sample", "--system", chain, "--partition", blur, "--depth", "4",
                        "--samples", "20000", "--seed", "3"),
         workloads.sample_check(p_chain, f_blur, 4, 20000)),
        ("sup", argv("sup", "--system", doubly, "--kind", "kow", "--nmax", "3"),
         workloads.sup_check(p_doubly)),
        ("report", argv("report", "--system", cycle, "--partition", cycle_cells, "--nmax", "4"),
         workloads.sequence_checks(p_cycle, np.eye(3), 4)),
    ]


def main() -> int:
    os.environ.update(run.PINNED_ENV)
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    import workloads
    from entropy_lab import cli

    problems = []
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            directory = Path(tmp) / name
            directory.mkdir()
            ops = workloads.generate(name, 0, directory, tiny=True)
            for trace in (0, 1):
                # measure() raises KeyError if a metric BENCHMARK.json declares is not computed.
                _, _, correct, _, record = run.measure(cli, workload, ops, 0.0, trace)
                if not correct:
                    problems.append(f"{name} trace={trace}: {record['problems']}")

        for command, argv, check in fixture_ops(workloads, np):
            _, code, out, err = run.call(cli, argv)
            found = check(code, out)
            if found:
                problems.append(f"fixture {command}: {found} {err.strip()}")

    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
