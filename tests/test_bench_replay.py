"""The benchmark's traced replay, run the way the benchmark runs it.

With ``--trace 1`` the benchmark replays each operation as separate calls
into the library (``bench/workloads.py``): ``maximal_minors``,
``groebner_basis``, ``Ideal(...).is_m_primary_or_unit()`` and
``verify_bundle`` among them.  A change to one of those calls fails here, not
only in a benchmark run.  ``classify`` is left out: its replay takes about
6 s and calls only the combinatorial layers, which ``tests/test_cli.py``
covers.  Output goes to the git-ignored ``bench/out/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["deform-sweep", "check-bundles", "check-degenerate"])
def test_traced_replay_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
