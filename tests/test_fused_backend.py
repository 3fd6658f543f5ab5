"""Window-kernel internals: plant coefficient updates and window shapes.

:class:`~repro.sim.batch.BatchThermalPlant` mutates its coefficient
arrays **in place** (array identity never changes) and counts every
write in a version counter.  These tests pin the counter's bump rules,
and prove the window kernel (``backend="fused"`` is an alias of the
vectorized lane) picks up coefficient changes at exactly the instants
fan commands or mid-run fouling faults make them, and keeps the
scalar lane's control cadence for any window width.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FleetConfig, ServerConfig
from repro.faults.events import FaultEvent, FaultSchedule
from repro.fleet import FleetSimulator, build_fleet_scenario
from repro.sim.batch import BatchThermalPlant
from repro.thermal.server import ServerThermalModel

_DT = 0.1


def _plants(n=3):
    return [ServerThermalModel(ServerConfig()) for _ in range(n)]


def _rack(scheme="rcoord_atref", n=4, seed=11, duration=60.0):
    return build_fleet_scenario(
        "homogeneous",
        n_servers=n,
        duration_s=duration,
        seed=seed,
        fleet=FleetConfig(n_servers=n, recirc_fraction=0.3),
        scheme=scheme,
    )


class TestPlantVersionCounter:
    """The monotonic counter every coefficient-derived cache keys on."""

    def test_apply_fan_speed_bumps_version(self):
        plant = BatchThermalPlant(_plants(), dt_s=_DT)
        v0 = plant.version
        plant.apply_fan_speed(0, 4000.0)
        assert plant.version == v0 + 1
        # Re-applying a cached level still counts as a coefficient write
        # (the arrays are mutated in place either way).
        plant.apply_fan_speed(0, 4000.0)
        assert plant.version == v0 + 2

    def test_set_fouling_bumps_version_and_clears_level_cache(self):
        plant = BatchThermalPlant(_plants(), dt_s=_DT)
        plant.apply_fan_speed(1, 5000.0)
        r_clean = plant.r_hs[1]
        v0 = plant.version
        plant.set_fouling(1, 0.4)
        assert plant.version == v0 + 1
        # The stale cached level must not be served after fouling: the
        # re-applied speed resolves against the fouled resistance.
        plant.apply_fan_speed(1, 5000.0)
        assert plant.r_hs[1] == pytest.approx(r_clean + 0.4)

    def test_noop_fouling_does_not_bump(self):
        plant = BatchThermalPlant(_plants(), dt_s=_DT)
        plant.set_fouling(2, 0.0)
        assert plant.version == 0

    def test_coefficient_arrays_keep_identity(self):
        """In-place mutation is the whole reason the counter exists: a
        cache keyed on array identity would never invalidate."""
        plant = BatchThermalPlant(_plants(), dt_s=_DT)
        r_hs, hs_decay = plant.r_hs, plant.hs_decay
        plant.apply_fan_speed(0, 3000.0)
        plant.set_fouling(0, 0.2)
        plant.apply_fan_speed(0, 3000.0)
        assert plant.r_hs is r_hs
        assert plant.hs_decay is hs_decay

    def test_snapshot_detaches_fan_arrays(self):
        """Copy-on-write for the fan-state mirrors the stepper holds."""
        plant = BatchThermalPlant(_plants(), dt_s=_DT)
        for i in range(3):
            plant.apply_fan_speed(i, 3000.0)
        fan_w, clamped = plant.fan_w, plant.clamped_speed
        plant.snapshot_fan_state()
        plant.apply_fan_speed(0, 8000.0)
        # The held references keep their pre-decision values.
        assert plant.fan_w is not fan_w
        assert plant.clamped_speed is not clamped
        assert clamped[0] == 3000.0
        assert plant.clamped_speed[0] == 8000.0


def _assert_exact(scalar, lane):
    for i in range(scalar.n_servers):
        rs, rl = scalar.server(i), lane.server(i)
        for name, channel in rs.channels.items():
            assert np.array_equal(
                channel, rl.channels[name], equal_nan=True
            ), f"server {i} {name}"
        assert rs.summary() == rl.summary(), f"server {i} summary"
    assert scalar.mean_inlet_c == lane.mean_inlet_c


class TestFusedCoefficientCache:
    """(Historic name: the window kernel once cached scan coefficients
    per plant version; the in-place coefficient change it had to track
    mid-run is what remains under test.)"""

    def test_mid_run_fouling_stays_equivalent(self):
        """A fouling fault mid-run changes r_hs/hs_decay in place; the
        window kernel must pick the change up at the fault instant.
        Pinned bit for bit against the scalar lane."""
        faults = FaultSchedule(
            [
                FaultEvent(
                    kind="fouling",
                    server=1,
                    start_s=20.0,
                    duration_s=25.0,
                    magnitude=0.5,
                ),
                FaultEvent(
                    kind="fan_seize", server=2, start_s=15.0, duration_s=30.0
                ),
            ]
        )
        results = {}
        for backend in ("scalar", "fused"):
            sim = FleetSimulator(
                _rack(),
                dt_s=_DT,
                record_decimation=2,
                backend=backend,
                faults=faults,
            )
            results[backend] = sim.run(60.0)
            assert results[backend].extras["backend"] == backend
        rs, rf = results["scalar"], results["fused"]
        assert rs.extras["faults"] == rf.extras["faults"]
        _assert_exact(rs, rf)


class TestWindowSemantics:
    def test_counters_match_vectorized(self):
        """Windows must not change how often control/sensing run: the
        obs counters (control decisions, server steps) agree with the
        scalar lane's."""
        from repro.obs import ObsConfig

        summaries = {}
        for backend in ("scalar", "fused"):
            sim = FleetSimulator(
                _rack(),
                dt_s=_DT,
                record_decimation=5,
                backend=backend,
                obs=ObsConfig(trace=False),
            )
            result = sim.run(60.0)
            summaries[backend] = result.extras["obs"]["counters"]
        ref, fus = summaries["scalar"], summaries["fused"]
        assert ref["server_steps"] == fus["server_steps"]
        assert ref.get("control_steps") == fus.get("control_steps")

    def test_single_step_windows_still_work(self):
        """dt equal to the control period forces w=1 windows - the
        kernel degenerates to one step per window and must still match
        the scalar lane bit for bit."""
        results = {}
        for backend in ("scalar", "fused"):
            rack = build_fleet_scenario(
                "homogeneous",
                n_servers=3,
                duration_s=30.0,
                seed=3,
                fleet=FleetConfig(n_servers=3, recirc_fraction=0.2),
            )
            sim = FleetSimulator(
                rack, dt_s=1.0, record_decimation=1, backend=backend
            )
            results[backend] = sim.run(30.0)
        _assert_exact(results["scalar"], results["fused"])
