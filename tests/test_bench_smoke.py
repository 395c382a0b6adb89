"""The benchmark's smoke self-test runs clean.

``bench/smoke.py`` runs every workload at tiny sizes, traced and untraced,
and checks the traced structural counts and the outputs of the seven CLI
commands on ``fixtures/`` against its independent reference.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
