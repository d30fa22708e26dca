"""Smoke tests of the benchmark harness at toy sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def mid():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    def top():
        traced_mid()
        clock.now += 3.0
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_mid = tracer.wrap("mid", mid)
    tracer.wrap("top", top)()

    assert tracer.calls("leaf") == 3
    assert tracer.self_s("leaf") == pytest.approx(6.0)
    assert tracer.self_s("mid") == pytest.approx(1.5)
    assert tracer.self_s("top") == pytest.approx(3.0)
    assert tracer.spans[("leaf", "mid")][0] == 2
    assert tracer.spans[("leaf", "top")][0] == 1
    assert tracer.spans[("top", None)][1:] == pytest.approx([10.5, 7.5])


def test_install_counts_calls_and_uninstall_restores():
    from ibmsim import configuration, dynamics
    from ibmsim.potentials import PotentialSpec

    original = configuration.label
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert configuration.label is not original
        dom = configuration.Domain(1, "torus", 8.0)
        state = configuration.label(configuration.Configuration([[1.0], [3.0], [5.0]], dom))
        traj = dynamics.simulate(state, PotentialSpec(), dynamics.SimParams(dt=0.1, t_end=0.3))
    finally:
        tracer.uninstall()
    assert configuration.label is original
    metrics = spans.layer_metrics(tracer)
    assert metrics["configuration.label.calls"] == 1
    assert metrics["dynamics.label_noise.calls"] == 3
    assert metrics["dynamics.particle_steps"] == 9
    assert np.isfinite(traj.positions).all()


def _toy_inputs(seed, workdir):
    return {"seed": seed}


def _toy_writes(inputs, out):
    path = out / "report.tsv"
    path.write_text(f"value\t{inputs['seed']}\n")
    return {"files": [path]}


def _toy_raises(inputs, out):
    raise RuntimeError("toy job failure")


def _toy_checks(inputs, outputs):
    return [("holds", True), ("broken", False)]


def test_failures_are_counted(tmp_path, monkeypatch):
    toy = workloads.Workload("toy", "harness test", _toy_inputs,
                             (("writes", _toy_writes), ("raises", _toy_raises)), _toy_checks)
    monkeypatch.setitem(workloads.WORKLOADS, "toy", toy)
    store = tmp_path / "digests"
    for run in range(2):
        result = tmp_path / f"result-{run}.json"
        assert worker.main(["--workload", "toy", "--seed", "3", "--seconds", "0",
                            "--t0", "0", "--workdir", str(tmp_path / f"work-{run}"),
                            "--result", str(result), "--digest-store", str(store)]) == 0
        out = json.loads(result.read_text())
        checks = dict(out["checks"])
        assert out["iterations"] == 2
        assert checks["digest-stable:report.tsv"] and checks["holds"]
        assert not checks["broken"]
        assert checks["digests-match-earlier-runs"]
        assert out["checks_failed"] == 1
        # one raising job per iteration plus the failed check
        assert out["failed"] == 3
        assert out["attempted"] == out["checks_run"] + 4
