"""Self-tests of the benchmark harness (``python -m pytest perfbench``)."""

from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import replace

import harness
import run
import workloads
from harness import (
    NAME_RE,
    SpanLog,
    dedupe_worker_busy,
    fingerprint_mismatches,
    load_spec,
    spec_errors,
)


def _fake_job(wall_s=2.0, run_s=1.5, workers=1):
    return workloads.Job(
        results=[],
        server_results=[],
        server_steps=1000,
        wall_s=wall_s,
        layers={
            "scenarios.build_s": 0.1,
            "sim.run_s": run_s,
            "result.summary_s": 0.01,
        },
        workers=workers,
        obs={
            "phases": {"plant": {"total_s": 0.5}, "control": {"total_s": 0.3}},
            "counters": {"server_steps": 1000, "control_steps": 100},
        },
    )


def test_benchmark_json_is_valid():
    assert spec_errors(load_spec()) == []


def test_every_declared_metric_is_produced_with_a_valid_name():
    spec = load_spec()
    jobs = [_fake_job(), _fake_job(wall_s=2.2)]
    probes = [{"import_s": 1.0, "ready_s": 0.5, "tuning_s": 0.4, "cal_s": 0.02}] * 3
    wl = SimpleNamespace(
        runs_per_job=1,
        controller_fallbacks=lambda job: 0,
        n_fired=lambda job: 0,
    )
    ref = SimpleNamespace(stacked_runs=0, result_mb=lambda: 1.0)
    e2e = run.end_to_end(jobs, probes, 100.0)
    layers = run.per_layer(wl, ref, jobs, _fake_job(run_s=1.8), probes)
    for metric in spec["end_to_end"]:
        assert metric["name"] in e2e, metric["name"]
    for metric in spec["per_layer"]:
        assert metric["name"] in {**e2e, **layers}, metric["name"]
    for name in run.PRINTED_ONLY:
        assert NAME_RE.match(name)
    assert layers["phase.unattributed_s"] == pytest.approx(1.8 - 0.8)
    assert layers["obs.overhead_ratio"] == pytest.approx(1.8 / 1.5)
    slow = _fake_job(run_s=1.8)
    slow.cal_s = 2 * harness.CAL_REF_S
    assert run.per_layer(wl, ref, jobs, slow, probes)[
        "obs.overhead_ratio"
    ] == pytest.approx(1.8 / 2 / 1.5)
    # Calibrated figures scale host seconds by the kernel's speed ratio.
    assert e2e["setup_s"] == pytest.approx(1.5 * harness.CAL_REF_S / 0.02)
    assert e2e["host.setup_s"] == pytest.approx(1.5)


def test_bad_names_and_bounds_are_reported():
    spec = load_spec()
    spec["end_to_end"] = [dict(m) for m in spec["end_to_end"]]
    spec["end_to_end"][0]["name"] = "_leading_underscore"
    spec["end_to_end"][1]["bound"] = 0.5
    errors = spec_errors(spec)
    assert any("bad name" in e for e in errors)
    assert any("bound" in e for e in errors)


def test_span_self_time_subtracts_union_of_children():
    log = SpanLog()
    root = log.add("job", 0.0, 10.0)
    a = log.add("a", 1.0, 3.0, parent=root)
    log.add("b", 2.0, 5.0, parent=root)  # overlaps a: union [1, 5]
    log.add("c", 8.0, 12.0, parent=root)  # clipped to [8, 10]
    log.add("grandchild", 1.5, 2.5, parent=a)
    assert log.self_time(root) == pytest.approx(10.0 - 4.0 - 2.0)
    assert log.self_time(a) == pytest.approx(2.0 - 1.0)
    assert [s.name for s in log.children(root)] == ["a", "b", "c"]
    with pytest.raises(ValueError):
        log.add("backwards", 2.0, 1.0)


def test_span_begin_end_nests_children(tmp_path):
    log = SpanLog()
    top = log.begin("job", run="r1")
    child = log.add("sim.run", log.spans[top].start, log.spans[top].start)
    log.end(top)
    assert log.spans[top].end >= log.spans[top].start
    log.write_jsonl(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == 2 and child == 1


def test_worker_busy_counts_each_stacked_chunk_once():
    chunk = {"labels": ("a", "b", "c", "d")}
    records = [({"pid": 7, "task_wall_s": 0.5}, chunk)] * 4
    records += [({"pid": 8, "task_wall_s": 0.3}, {"labels": ("e", "f")})] * 2
    records += [({"pid": 7, "task_wall_s": 0.2}, None)] * 2  # solo tasks
    assert dedupe_worker_busy(records) == pytest.approx(0.5 + 0.3 + 0.2 + 0.2)


def test_fingerprint_mismatch_on_one_ulp():
    ref = {"fan_energy_j": (1.0, 2.0), "decisions_sha256": "ab"}
    assert fingerprint_mismatches(ref, dict(ref)) == []
    bumped = {**ref, "fan_energy_j": (1.0, np.nextafter(2.0, 3.0))}
    assert fingerprint_mismatches(ref, bumped) == ["fan_energy_j"]
    assert fingerprint_mismatches(ref, {**ref, "decisions_sha256": "ac"}) == [
        "decisions_sha256"
    ]


@pytest.fixture(scope="module")
def short_runs():
    wl = workloads.Table3Scalar(seed=3)
    spec_a, spec_b = (wl._spec("rcoord", 60.0, 1) for _ in range(2))
    return [
        wl._simulator(spec).run(spec.duration_s, label=spec.label)
        for spec in (spec_a, spec_b)
    ]


def _perturbed(result, channel, delta):
    channels = dict(result.channels)
    channels[channel] = channels[channel].copy()
    channels[channel][-1] += delta
    return replace(result, channels=channels)


def test_check_fails_on_a_perturbed_summary(short_runs):
    a, b = short_runs
    assert workloads.compare_servers([a], [b]) == []
    fp = workloads.fingerprint([a])
    assert fingerprint_mismatches(fp, workloads.fingerprint([b])) == []
    moved = _perturbed(b, "fan_speed", 1.0)
    assert workloads.compare_servers([a], [moved]) == [f"{a.label}:fan_speed"]
    assert "decisions_sha256" in fingerprint_mismatches(
        fp, workloads.fingerprint([moved])
    )


def test_fused_tolerance_admits_thermal_drift_only(short_runs):
    a, _ = short_runs
    drift = _perturbed(a, "junction", 1e-12)
    assert workloads.compare_servers([a], [drift], tolerant=True) == []
    assert workloads.compare_servers([a], [drift]) == [f"{a.label}:junction"]
    far = _perturbed(a, "junction", 1e-6)
    assert workloads.compare_servers([a], [far], tolerant=True) == [
        f"{a.label}:junction"
    ]
