"""The benchmark's traced replay, run the way the benchmark runs it.

With ``--trace 1`` the benchmark replays each operation as separate calls
into the library (``bench/workloads.py``): ``maximal_minors``,
``groebner_basis``, ``Ideal(...).is_m_primary_or_unit()`` and
``verify_bundle`` among them.  A change to one of those calls fails here, not
only in a benchmark run.  ``classify`` has no traced replay here, as it takes
about 6 s; one untraced round of it runs instead, so that its CLI outputs meet
the benchmark's own checks.  Output goes to the git-ignored ``bench/out/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize("workload", ["deform-sweep", "check-bundles", "check-degenerate"])
def test_traced_replay_is_correct(workload):
    run_bench(workload, 1)


def test_classify_round_is_correct():
    run_bench("classify", 0)
