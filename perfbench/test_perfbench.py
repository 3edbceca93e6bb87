"""Tests of the benchmark's own arithmetic and input generation."""
import dataclasses
import json

import numpy as np
import pytest

import tracer
import workloads


def _recorded(monkeypatch, ticks, body):
    """Run ``body(rec)`` under a Recorder whose clock reads ``ticks``."""
    ticks = iter(ticks)
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: next(ticks))
    rec = tracer.Recorder()
    body(rec)
    return rec.self_times()


def test_self_time_without_children_is_the_duration(monkeypatch):
    calls, self_s = _recorded(monkeypatch, [1.0, 4.0],
                              lambda rec: rec.call("detect.auc", lambda: None))
    assert calls["detect.auc"] == 1
    assert self_s["detect.auc"] == pytest.approx(3.0)


def test_self_time_is_parent_minus_disjoint_children(monkeypatch):
    # outer [0, 7]; inner [1, 3] and [4, 4.5], the second with a child [4.1, 4.3]
    def body(rec):
        def outer():
            rec.call("detect.score", lambda: None)
            rec.call("detect.score", lambda: rec.call("ndmath.ridge_inverse", lambda: None))

        rec.call("detect.emit_report", outer)

    calls, self_s = _recorded(monkeypatch, [0.0, 1.0, 3.0, 4.0, 4.1, 4.3, 4.5, 7.0], body)
    assert dict(calls) == {"detect.emit_report": 1, "detect.score": 2,
                           "ndmath.ridge_inverse": 1}
    assert self_s["detect.emit_report"] == pytest.approx(4.5)
    assert self_s["detect.score"] == pytest.approx(2.0 + 0.3)
    assert self_s["ndmath.ridge_inverse"] == pytest.approx(0.2)


def _strict_parse(line, d):
    fields = line.split(",")
    try:
        values = [float(fields[j]) for j in range(d)]
    except (ValueError, IndexError):
        return False
    return bool(np.all(np.isfinite(values)))


def test_dirty_injector_corrupts_exactly_the_planned_rows():
    rng = np.random.default_rng(5)
    d, n = 7, 2000
    lines = workloads.csv_lines(rng.standard_normal((n, d)), np.zeros(n, dtype=np.int64))
    plan = workloads.dirty_plan(n, d, 0.03, rng)
    workloads.inject_dirty(lines, d, plan)
    bad = [i for i, line in enumerate(lines) if not _strict_parse(line, d)]
    assert len(plan[0]) == 60
    assert bad == plan[0].tolist()
    assert set(plan[1].tolist()) == set(range(len(workloads.DIRTY_KINDS)))


def test_prepare_is_seeded_and_cached(tmp_path):
    w = workloads.Workload(name="tiny", why="test", d=4, train_rows=50,
                           eval_mix=(80, 10, 10), config={"epochs": 1},
                           dirty_frac=0.1)
    a = workloads.prepare(w, 3, str(tmp_path / "a"))
    again = workloads.prepare(w, 3, str(tmp_path / "a"))
    b = workloads.prepare(w, 3, str(tmp_path / "b"))
    other = workloads.prepare(w, 4, str(tmp_path / "a"))
    assert a.sha256 == again.sha256 == b.sha256 != other.sha256
    assert a.truth_tags.size == 90
    assert sorted(set(a.truth_tags.tolist())) == ["far", "near", "normal"]
    with open(a.config_json, encoding="utf-8") as fh:
        assert json.load(fh) == {"epochs": 1}
    # a changed definition does not reuse the inputs cached for the old one
    changed = workloads.prepare(dataclasses.replace(w, config={"epochs": 2}), 3,
                                str(tmp_path / "a"))
    assert changed.config_json != a.config_json
    with open(changed.config_json, encoding="utf-8") as fh:
        assert json.load(fh) == {"epochs": 2}
