"""Tests of the benchmark itself (smoke mode and the correctness gate).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test run:
each smoke case starts a benchmark process and takes a few seconds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (imports repro from this checkout's src/)
import verify  # noqa: E402
from repro.api.errors import CheckFailedError  # noqa: E402
from workloads import COLD_ROWS, WORKLOADS, _cold_request  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_LINE = re.compile(
    r"^metric (?P<name>\S+) (?P<value>\S+) (?P<unit>\S+) n=(?P<n>\d+)$"
)


def _smoke(workload: str, trace: int):
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert child.returncode == 0, child.stderr[-3000:]
    lines = child.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match:
            printed[match["name"]] = match
    return json.loads(lines[-1]), printed


def test_benchmark_names_its_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric_with_unit(workload, trace):
    result, printed = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert name in printed, f"{name} not printed"
        assert printed[name]["unit"] == unit
        assert int(printed[name]["n"]) >= 1
    assert "failed_ratio" in printed
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in declared)


class _CorruptOne(verify.Reference):
    """The real reference, except that one request's value is off."""

    def __init__(self):
        super().__init__()
        self.victim = None
        self.victim_checks = 0

    def __call__(self, request):
        value = super().__call__(request)
        if self.victim is None:
            self.victim = request
        if request == self.victim:
            self.victim_checks += 1
            return value + 1e-6
        return value


def test_corrupted_reference_counts_in_failed_ratio():
    reference = _CorruptOne()
    result, lines = run.run_workload(
        "cache_rerun", seed=5, seconds=1, trace=False, smoke=True,
        reference=reference,
    )
    # exactly the responses to the victim request fail (a pool entry is
    # asked more than once per round)
    assert result["correct"] is False
    assert result["failed"] == reference.victim_checks >= 1
    assert result["failed"] < result["attempted"]
    ratio = next(line for line in lines
                 if line.startswith("metric failed_ratio"))
    assert float(ratio.split()[2]) == pytest.approx(  # printed to 6 digits
        result["failed"] / result["attempted"], rel=1e-5)


def test_error_responses_count_as_failures():
    request = _cold_request(COLD_ROWS[0], 1)
    failure = verify.error_response(request, CheckFailedError("boom"))
    failures = verify.gate([request], [failure], lambda r: 1.0)
    assert len(failures) == 1 and "ERROR" in failures[0].reason
