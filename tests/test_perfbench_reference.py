"""The `--out` reports against perfbench's reference digests.

One pass each of the suites-fp, suites-q and census workloads is replayed
through perfbench/workloads.py, which reads reference.json and writes
only its own report file under a temporary directory.  A report that
changes by one byte, an exit status, a check count or the exception an op
raises (suites-q's GSphom records its ValueError) is a problem here, so
Tier-1 fails before the benchmark's gate does."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["suites-fp", "suites-q", "census"])
def test_one_pass_matches_the_reference(workload, tmp_path):
    plan = workloads.Plan(workload, 0, str(tmp_path))
    outcomes = [workloads.execute(op) for op in plan.pass_ops(0)]
    assert outcomes
    assert [(o["label"], o["problems"]) for o in outcomes if o["problems"]] == []
