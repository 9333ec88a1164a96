"""The benchmark's worker (perfbench/worker.py) on the self-test's tiny jobs,
traced: every call passes and every layer its workload must use records a
nonzero value.  Moving a call off a pinned layer fails here, not only in
perfbench/selftest.py."""

import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
from selftest import TINY, USED_ON  # noqa: E402


@pytest.mark.parametrize("workload", ["lemmas", "bijection"])
def test_traced_worker_uses_every_pinned_layer(workload):
    job = run.make_job(workload, 1, True, TINY)
    _, result = run.launch(ROOT, job, timeout=120)
    assert run.failures_of(job, result)[1] == []
    unused = [name for name, value in result["layers"].items()
              if name.startswith(USED_ON[workload]) and not value]
    assert unused == []
