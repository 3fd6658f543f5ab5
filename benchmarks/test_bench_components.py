"""Microbenchmarks of the core components (true pytest-benchmark kernels).

These quantify simulation throughput: plant steps per second bounds how
long the Table III sweeps take.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from bench_report import bench_record, smoke_mode

from repro.config import ServerConfig
from repro.core.gain_schedule import GainRegion, GainSchedule
from repro.core.pid import PIDController, PIDGains
from repro.sensing.sensor import TemperatureSensor
from repro.sim.batch import BatchRunSpec, run_batch
from repro.sim.batch_control import BatchGlobalController
from repro.sim.scenarios import (
    build_global_controller,
    build_plant,
    build_sensor,
    paper_workload,
)
from repro.sim.engine import Simulator
from repro.thermal.server import ServerThermalModel


def test_plant_step_throughput(benchmark):
    """One exact-exponential plant step (heat sink + die + powers)."""
    plant = ServerThermalModel(ServerConfig())

    def step():
        plant.step(0.1, 0.5, 4000.0)

    benchmark(step)


def test_sensor_pipeline_throughput(benchmark):
    """One observe+read through noise, ADC, and delay line."""
    sensor = TemperatureSensor(ServerConfig().sensing)
    state = {"t": 0.0}

    def observe_read():
        state["t"] += 1.0
        sensor.observe(state["t"], 75.0 + 0.01 * (state["t"] % 7))
        sensor.read(state["t"])

    benchmark(observe_read)


def test_pid_update_throughput(benchmark):
    """One position-form PID update with clamping."""
    pid = PIDController(
        gains=PIDGains(kp=300.0, ki=6.0, kd=8800.0),
        setpoint=75.0,
        sample_time_s=30.0,
        output_offset=3000.0,
        output_limits=(1000.0, 8500.0),
    )
    benchmark(pid.update, 76.0)


@pytest.mark.parametrize("due", ["whole", "subset"])
def test_batch_control_decision_throughput(benchmark, due):
    """One vectorized DTM decision for a 64-server R-coord batch.

    ``whole`` steps every server, ``subset`` 60 of the 64 (the due set
    of a batch with mixed CPU periods).  Each call advances one CPU
    period, so every 30th call also carries the fan decisions.
    """
    n = 64
    cfg = ServerConfig()
    ctrl = BatchGlobalController(
        [build_global_controller("rcoord", cfg) for _ in range(n)]
    )
    idx = np.arange(n) if due == "whole" else np.arange(4, n)
    rng = np.random.default_rng(0)
    tmeas = 78.0 + 3.0 * rng.standard_normal((97, idx.size))
    util = rng.uniform(0.1, 0.9, (97, idx.size))
    clock = {"k": 0}

    def decide():
        k = clock["k"] = clock["k"] + 1
        ctrl.step_due(idx, float(k), tmeas[k % 97], util[k % 97])

    benchmark(decide)


def test_gain_schedule_lookup_throughput(benchmark):
    """One Eqn 8-9 interpolation."""
    schedule = GainSchedule(
        [
            GainRegion(2000.0, PIDGains(300.0, 6.0, 8800.0)),
            GainRegion(6000.0, PIDGains(2400.0, 45.0, 84000.0)),
        ]
    )
    benchmark(schedule.gains_at, 4100.0)


def test_closed_loop_simulated_minute(benchmark):
    """60 simulated seconds of the full R-coord stack (dt = 0.1 s)."""
    cfg = ServerConfig()

    def run_minute():
        controller = build_global_controller("rcoord", cfg)
        sim = Simulator(
            build_plant(cfg),
            build_sensor(cfg, seed=1),
            paper_workload(60.0, seed=1),
            controller,
            record_decimation=10,
        )
        return sim.run(60.0)

    benchmark.pedantic(run_minute, rounds=3, iterations=1)
    steps_per_sec = 600 / benchmark.stats.stats.mean
    benchmark.extra_info["steps_per_sec"] = steps_per_sec
    bench_record(
        "core",
        "closed_loop_scalar",
        dt_s=0.1,
        steps_per_sec=round(steps_per_sec, 1),
    )


def test_closed_loop_batch_grid():
    """The same closed loop, 16 independent servers on the batch backend.

    This is the core batch primitive parameter sweeps ride on; the
    per-server steps/sec should sit well above the scalar number above.
    """
    width = 16
    duration_s = 20.0 if smoke_mode() else 60.0
    rounds = 1 if smoke_mode() else 3
    n_steps = int(round(duration_s / 0.1))

    def build_specs():
        cfg = ServerConfig()
        return [
            BatchRunSpec(
                plant=build_plant(cfg),
                sensor=build_sensor(cfg, seed=seed),
                workload=paper_workload(duration_s, seed=seed),
                controller=build_global_controller("rcoord", cfg),
                duration_s=duration_s,
                record_decimation=10,
                label=f"seed={seed}",
            )
            for seed in range(width)
        ]

    best = float("inf")
    for _ in range(rounds):
        specs = build_specs()
        start = time.perf_counter()
        run_batch(specs)
        best = min(best, time.perf_counter() - start)
    per_sec = width * n_steps / best
    bench_record(
        "core",
        "closed_loop_batch16",
        dt_s=0.1,
        width=width,
        server_steps_per_sec=round(per_sec, 1),
    )
