"""The benchmark's self-test (`bench/selftest.py`) passes.

It plays and rolls back an episode through the same calls the benchmark
makes and shows that each output check catches a corrupted input, so a
break there fails this suite too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
