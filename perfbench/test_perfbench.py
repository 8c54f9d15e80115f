"""The benchmark's own tests: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run  # perfbench/ is on the path as the test file's directory

run.import_program()

from cfsmkit import Action, Cfsm, CommunicatingSystem  # noqa: E402
from measure import tail  # noqa: E402
from reference import shortest_violations  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert f" {name} " in done.stdout  # the human-readable line


def test_a_wrong_expected_verdict_fails_the_run():
    done = _bench("--workload", "tiny-battery", "--seed", "3", "--seconds", "0.2", "--smoke",
                  "--corrupt-expected")
    assert done.returncode != 0
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False
    assert "FAILED" in done.stderr


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "tiny-battery", "--seed", "3", "--seconds", "0.2",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    value, percentile = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == 90.0
    few = [float(i) for i in range(20)]
    assert tail(few) == (statistics.quantiles(few, n=4)[2], 75.0)
    assert tail([3.0]) == (3.0, 75.0)


def test_self_time_subtracts_direct_children():
    tracer = Tracer()

    def inner():
        return sum(range(10_000))

    def outer():
        return tracer.call("inner", inner)

    tracer.call("check", outer)
    totals = tracer.self_times()
    spans = {name: end - start for _, _, name, start, end, _ in tracer.spans}
    assert totals["inner"] == pytest.approx(spans["inner"])
    assert totals["check"] == pytest.approx(spans["check"] - spans["inner"])


def _two_machines(a_moves, b_moves) -> CommunicatingSystem:
    def machine(subject, other, moves):
        transitions = [(src, Action.send(subject, other, m) if kind == "!" else
                        Action.receive(other, subject, m), dst)
                       for src, kind, m, dst in moves]
        return Cfsm.make(subject, "0", transitions, extra_states=["0"])

    return CommunicatingSystem({"A": machine("A", "B", a_moves),
                                "B": machine("B", "A", b_moves)})


def test_reference_depths():
    # Both wait for each other: a deadlock at the initial configuration.
    waiting = _two_machines([("0", "?", "a", "1")], [("0", "?", "a", "1")])
    assert shortest_violations(waiting, 2)["depths"]["deadlock"] == 0
    # A sends "a", which B cannot take: unspecified reception after one step,
    # and A's send loop is cut off at the bound.
    wrong = _two_machines([("0", "!", "a", "0")], [("0", "?", "b", "1")])
    found = shortest_violations(wrong, 2)
    assert found["depths"] == {"deadlock": None, "orphan_message": None,
                               "unspecified_reception": 1}
    assert found["truncated"] and found["configurations"] == 3 and found["edges"] == 2
