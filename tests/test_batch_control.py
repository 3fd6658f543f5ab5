"""Vectorized controller backend: equivalence, sync-back, and fallback.

The :class:`~repro.sim.batch_control.BatchGlobalController` contract is
bit-for-bit agreement with the scalar controller objects for every stock
DTM composition - all five Table III schemes, SSfan and E-coord
included - *including* the state it writes back after a run: a scalar
run resumed from a vectorized run must continue the exact trajectory.
Compositions it cannot represent (custom subclasses, non-stock models)
must demote only their own server to the scalar objects, with the
reason recorded in ``result.extras``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace
from itertools import product

from repro.config import ControlConfig, FleetConfig, ServerConfig
from repro.core.cpu_capper import DeadzoneCpuCapper
from repro.core.ecoord import EnergyAwareCoordinator
from repro.core.global_controller import GlobalController
from repro.core.rules import RuleBasedCoordinator
from repro.fleet import FleetSimulator, Rack, build_fleet_scenario
from repro.fleet.rack import ServerSlot
from repro.room import run_stacked_racks
from repro.sim.batch_control import BatchTrackerBank
from repro.sim import (
    BatchRunSpec,
    ParameterSweep,
    Simulator,
    batch_controller_unsupported_reason,
    build_global_controller,
    build_plant,
    build_sensor,
    paper_workload,
    run_batch,
)
from repro.workload.performance import DeadlineTracker
from repro.workload.synthetic import NoisyWorkload, SquareWaveWorkload

_N = 4
_DUR = 90.0
_DT = 0.1
_DEC = 3

#: All Table III schemes vectorize (SSfan and E-coord included).
VECTORIZED_SCHEMES = (
    "uncoordinated",
    "ecoord",
    "rcoord",
    "rcoord_atref",
    "rcoord_atref_ssfan",
)


def _rack(scheme: str, seed: int = 11, n: int = _N):
    return build_fleet_scenario(
        "homogeneous",
        n_servers=n,
        duration_s=_DUR,
        seed=seed,
        fleet=FleetConfig(n_servers=n, recirc_fraction=0.3),
        scheme=scheme,
    )


def _assert_results_identical(a, b):
    assert a.n_servers == b.n_servers
    for i in range(a.n_servers):
        ra, rb = a.server(i), b.server(i)
        for name, channel in ra.channels.items():
            assert np.array_equal(channel, rb.channels[name]), (
                f"server {i} channel {name} diverged"
            )
        assert ra.performance == rb.performance, f"server {i} performance"
        assert ra.energy == rb.energy, f"server {i} energy"
    assert a.mean_inlet_c == b.mean_inlet_c


class TestSchemeEquivalence:
    @pytest.mark.parametrize("scheme", VECTORIZED_SCHEMES)
    def test_vectorized_controller_bit_for_bit(self, scheme):
        scalar = FleetSimulator(
            _rack(scheme), dt_s=_DT, record_decimation=_DEC, backend="scalar"
        ).run(_DUR)
        vectorized = FleetSimulator(
            _rack(scheme), dt_s=_DT, record_decimation=_DEC,
            backend="vectorized",
        ).run(_DUR)
        assert vectorized.extras["controller_backend"] == "vectorized"
        assert "controller_fallbacks" not in vectorized.extras
        _assert_results_identical(scalar, vectorized)

    def test_no_scheme_falls_back(self):
        """All five Table III schemes run on the array lane (the fused
        backend's throughput targets assume zero controller fallbacks)."""
        for scheme in VECTORIZED_SCHEMES:
            result = FleetSimulator(
                _rack(scheme), dt_s=_DT, record_decimation=_DEC,
                backend="vectorized",
            ).run(_DUR)
            assert result.extras["controller_backend"] == "vectorized"
            assert "controller_fallbacks" not in result.extras


class TestMixedRack:
    def _mixed_rack(self, seed: int = 5):
        """One slot's controller is a custom subclass (cannot batch)."""
        rack = _rack("rcoord", seed=seed)
        victim = rack.slots[1]

        class TracingController(GlobalController):
            pass

        cfg = victim.plant.config
        odd = TracingController(
            control=cfg.control,
            fan_controller=victim.controller.fan_controller,
            coordinator=victim.controller.coordinator,
            cpu_capper=victim.controller.cpu_capper,
            initial_state=victim.controller.state,
        )
        slots = list(rack.slots)
        slots[1] = ServerSlot(
            name=victim.name,
            plant=victim.plant,
            sensor=victim.sensor,
            workload=victim.workload,
            controller=odd,
            inlet=victim.inlet,
        )
        return Rack(slots, coupling=rack.coupling, exhaust=rack.exhaust)

    def _mixed_rack_scalar_twin(self, seed: int = 5):
        """The same composition but with the stock class (for reference)."""
        return _rack("rcoord", seed=seed)

    def test_per_server_fallback_is_recorded_and_exact(self):
        vec = FleetSimulator(
            self._mixed_rack(), dt_s=_DT, record_decimation=_DEC,
            backend="vectorized",
        ).run(_DUR)
        assert vec.extras["backend"] == "vectorized"
        assert vec.extras["controller_backend"] == "mixed"
        fallbacks = vec.extras["controller_fallbacks"]
        assert list(fallbacks) == ["srv01"]
        assert "TracingController" in fallbacks["srv01"]

        scalar = FleetSimulator(
            self._mixed_rack(), dt_s=_DT, record_decimation=_DEC,
            backend="scalar",
        ).run(_DUR)
        _assert_results_identical(scalar, vec)

    def test_subclass_behaves_like_stock_here(self):
        """Sanity for the fixture: the pass-through subclass changes
        nothing, so the mixed rack matches the all-stock rack too."""
        vec = FleetSimulator(
            self._mixed_rack(), dt_s=_DT, record_decimation=_DEC,
            backend="vectorized",
        ).run(_DUR)
        stock = FleetSimulator(
            self._mixed_rack_scalar_twin(), dt_s=_DT, record_decimation=_DEC,
            backend="vectorized",
        ).run(_DUR)
        assert stock.extras["controller_backend"] == "vectorized"
        _assert_results_identical(stock, vec)

    def test_stacked_provenance_matches_solo_runs(self):
        """A mixed rack stacked behind a stock rack keeps its solo
        results and provenance, plus where it rode in the stack."""
        def racks():
            return [_rack("rcoord", seed=2), self._mixed_rack()]

        stacked = run_stacked_racks(
            racks(), _DUR, dt_s=_DT, record_decimation=_DEC
        )
        for position, (rack, result) in enumerate(zip(racks(), stacked)):
            solo = FleetSimulator(
                rack, dt_s=_DT, record_decimation=_DEC, backend="vectorized"
            ).run(_DUR, label=result.label)
            _assert_results_identical(solo, result)
            assert result.extras == {
                **solo.extras,
                "stacked": {"n_racks": 2, "width": 2 * _N, "position": position},
            }
        assert stacked[0].extras["controller_backend"] == "vectorized"
        assert stacked[1].extras["controller_backend"] == "mixed"
        assert list(stacked[1].extras["controller_fallbacks"]) == ["srv01"]


class TestControllerSyncBack:
    @pytest.mark.parametrize("scheme", VECTORIZED_SCHEMES)
    def test_controller_state_matches_scalar_twin(self, scheme):
        """Every piece of observable controller state written back after
        a vectorized run equals the state a scalar run leaves behind."""
        rack_s, rack_v = _rack(scheme), _rack(scheme)
        FleetSimulator(rack_s, dt_s=_DT, backend="scalar").run(_DUR)
        FleetSimulator(rack_v, dt_s=_DT, backend="vectorized").run(_DUR)
        for slot_s, slot_v in zip(rack_s, rack_v):
            cs, cv = slot_s.controller, slot_v.controller
            assert cs.state == cv.state
            assert cs.t_ref_c == cv.t_ref_c
            assert cs.next_fan_decision_s == cv.next_fan_decision_s
            assert cs.last_proposals == cv.last_proposals
            fs, fv = cs.fan_controller, cv.fan_controller
            assert fs.applied_speed_rpm == fv.applied_speed_rpm
            assert fs.region_index == fv.region_index
            assert fs.pid.gains == fv.pid.gains
            assert fs.pid.setpoint == fv.pid.setpoint
            assert fs.pid.output_offset == fv.pid.output_offset
            assert fs.pid.integral == fv.pid.integral
            assert fs.pid.prev_error == fv.pid.prev_error
            assert fs.pid.last_output == fv.pid.last_output
            gs, gv = fs.quantization_guard, fv.quantization_guard
            if gs is not None:
                assert gs.hold_count == gv.hold_count
            if isinstance(
                cs.coordinator, (RuleBasedCoordinator, EnergyAwareCoordinator)
            ):
                assert cs.coordinator.last_action == cv.coordinator.last_action
                assert (
                    cs.coordinator.action_counts == cv.coordinator.action_counts
                )
            if cs.single_step is not None:
                ss, sv = cs.single_step, cv.single_step
                assert ss.phase == sv.phase
                assert ss.periods_in_phase == sv.periods_in_phase
                assert ss.boost_count == sv.boost_count
            if cs.setpoint is not None:
                ps, pv = cs.setpoint.prediction_filter, cv.setpoint.prediction_filter
                assert ps.samples == pv.samples
                assert ps.running_sum == pv.running_sum

    def test_tracker_state_synced_back(self):
        rack_s, rack_v = _rack("rcoord"), _rack("rcoord")
        sim_s = FleetSimulator(rack_s, dt_s=_DT, backend="scalar")
        sim_v = FleetSimulator(rack_v, dt_s=_DT, backend="vectorized")
        res_s = sim_s.run(_DUR)
        res_v = sim_v.run(_DUR)
        for i in range(rack_s.n_servers):
            assert res_s.server(i).performance == res_v.server(i).performance

    @pytest.mark.parametrize("scheme", VECTORIZED_SCHEMES)
    def test_scalar_resume_after_vectorized_run(self, scheme):
        """A scalar run resumed from a vectorized run's synced-back state
        must produce the same trajectory as scalar-after-scalar."""
        rack_s, rack_v = _rack(scheme), _rack(scheme)
        FleetSimulator(rack_s, dt_s=_DT, backend="scalar").run(_DUR)
        FleetSimulator(rack_v, dt_s=_DT, backend="vectorized").run(_DUR)
        resumed_s = FleetSimulator(
            rack_s, dt_s=_DT, record_decimation=_DEC, backend="scalar"
        ).run(_DUR)
        resumed_v = FleetSimulator(
            rack_v, dt_s=_DT, record_decimation=_DEC, backend="scalar"
        ).run(_DUR)
        _assert_results_identical(resumed_s, resumed_v)


def _scheme_sweep_spec(scheme: str) -> BatchRunSpec:
    cfg = ServerConfig()
    return BatchRunSpec(
        plant=build_plant(cfg),
        sensor=build_sensor(cfg, seed=7),
        workload=paper_workload(_DUR, seed=7),
        controller=build_global_controller(scheme, cfg),
        duration_s=_DUR,
        dt_s=_DT,
        record_decimation=_DEC,
        label=scheme,
    )


class TestSeededSweep:
    def test_scheme_grid_matches_scalar(self):
        """A sweep across all five schemes in one batch equals the
        scalar runner path."""
        values = list(VECTORIZED_SCHEMES)
        vectorized = ParameterSweep(spec_builder=_scheme_sweep_spec).run(
            values, backend="vectorized"
        )
        scalar = ParameterSweep(spec_builder=_scheme_sweep_spec).run(
            values, backend="scalar"
        )
        for ps, pv in zip(scalar, vectorized):
            assert ps.value == pv.value
            for name, channel in ps.result.channels.items():
                assert np.array_equal(channel, pv.result.channels[name]), (
                    f"scheme {ps.value} channel {name} diverged"
                )
            assert ps.result.performance == pv.result.performance
            assert ps.result.energy == pv.result.energy


def _interval_pieces(scheme: str, cpu_interval_s: float):
    """One server whose CPU period may differ from its batch peers'.

    A hot inlet and full-load bursts make the capper cut below demand, so
    the deadline trackers see gaps and SSfan boosts.
    """
    cfg = replace(
        ServerConfig(),
        ambient_c=35.0,
        control=ControlConfig(cpu_interval_s=cpu_interval_s, fan_interval_s=3.0),
    )
    workload = NoisyWorkload(
        SquareWaveWorkload(low=0.1, high=1.0, half_period_s=40.0),
        std=0.04,
        seed=5,
    )
    return (
        build_plant(cfg),
        build_sensor(cfg, seed=5),
        workload,
        build_global_controller(scheme, cfg),
    )


#: Servers of each subset-step batch as (scheme, CPU period s, deadline
#: tracker window).  Mixed CPU periods make control steps on which only
#: a strict subset of the batch is due; the mixed batch also makes those
#: subsets hit partial capper, set-point, E-coord and SSfan groups.
_SUBSET_BATCHES = {
    **{
        scheme: ((scheme, 1.0, 10), (scheme, 2.0, 10))
        for scheme in VECTORIZED_SCHEMES
    },
    "mixed": tuple(
        (scheme, cpu_interval_s, window)
        for window, (scheme, cpu_interval_s) in enumerate(
            product(VECTORIZED_SCHEMES, (1.0, 2.0, 3.0)), start=2
        )
    ),
}

_SUBSET_S = 240.0


class TestHeterogeneousCpuPeriods:
    @pytest.mark.parametrize("batch", list(_SUBSET_BATCHES))
    def test_subset_control_steps_bit_for_bit(self, batch):
        """Mixed CPU periods make fan decisions land on steps where only
        a strict subset of the batch is due; those subset steps must
        apply fan changes to the plant exactly like the scalar engine
        (regression: the whole-rack lane once aliased its fan mirror to
        the controller arrays, defeating the changed-fan detection), and
        the state synced back after them must resume a scalar run on the
        scalar twin's trajectory."""
        servers = _SUBSET_BATCHES[batch]
        pieces = [_interval_pieces(scheme, ci) for scheme, ci, _ in servers]
        vectorized = run_batch(
            [
                BatchRunSpec(
                    plant=plant,
                    sensor=sensor,
                    workload=workload,
                    controller=controller,
                    duration_s=_SUBSET_S,
                    dt_s=_DT,
                    record_decimation=_DEC,
                    degradation_window=window,
                )
                for (plant, sensor, workload, controller), (_, _, window) in zip(
                    pieces, servers
                )
            ]
        )
        for i, (scheme, cpu_interval_s, window) in enumerate(servers):
            label = f"{scheme} cpu={cpu_interval_s:g} window={window}"

            def scalar_run(plant, sensor, workload, controller):
                return Simulator(
                    plant, sensor, workload, controller,
                    dt_s=_DT, record_decimation=_DEC, degradation_window=window,
                ).run(_SUBSET_S)

            twin = _interval_pieces(scheme, cpu_interval_s)
            scalar = scalar_run(*twin)
            resumed_s = scalar_run(*twin)
            resumed_v = scalar_run(*pieces[i])
            for reference, result in (
                (scalar, vectorized[i]),
                (resumed_s, resumed_v),
            ):
                for name, channel in reference.channels.items():
                    assert np.array_equal(channel, result.channels[name]), (
                        f"{label}: channel {name} diverged"
                    )
                assert reference.performance == result.performance, label
                assert reference.energy == result.energy, label


class TestTrackerBank:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6), st.data())
    def test_records_match_scalar_trackers(self, windows, data):
        """Whole-batch and subset records replay DeadlineTracker.record:
        the recent degradation is bit-equal to the scalar trackers' after
        every call, and sync_back restores equal summaries and windows."""
        n = len(windows)
        gap = st.floats(0.0, 1.0)
        banked = [DeadlineTracker(window=w) for w in windows]
        reference = [DeadlineTracker(window=w) for w in windows]
        for w, a, b in zip(windows, banked, reference):
            history = tuple(data.draw(st.lists(gap, max_size=w)))
            periods = len(history) + data.draw(st.integers(0, 40))
            for tracker in (a, b):
                tracker.restore(
                    periods=periods,
                    violations=0,
                    lost_utilization=sum(history),
                    demanded_utilization=float(len(history)),
                    recent_gaps=history,
                )
        bank = BatchTrackerBank(banked, track_recent=True)
        everyone = np.arange(n)
        for _ in range(data.draw(st.integers(1, 30))):
            if data.draw(st.booleans()):
                idx = everyone
            else:
                idx = np.array(
                    sorted(
                        data.draw(st.sets(st.integers(0, n - 1), min_size=1))
                    )
                )
            per_row = st.lists(gap, min_size=idx.size, max_size=idx.size)
            demanded = np.array(data.draw(per_row))
            applied = np.array(data.draw(per_row))
            bank.record(idx, demanded, applied)
            for k, i in enumerate(idx):
                reference[i].record(float(demanded[k]), float(applied[k]))
            assert bank.recent_degradation(everyone).tolist() == [
                t.recent_degradation for t in reference
            ]
        bank.sync_back()
        for a, b in zip(banked, reference):
            assert a.summary == b.summary
            assert a.recent_gaps == b.recent_gaps


class TestUnsupportedReasons:
    def test_stock_compositions_supported(self):
        for scheme in VECTORIZED_SCHEMES:
            controller = build_global_controller(scheme, ServerConfig())
            assert batch_controller_unsupported_reason(controller) is None

    def test_non_stock_models_unsupported(self):
        """SSfan/E-coord vectorize only with the stock steady-state
        model whose closed forms the array lane replays."""
        from repro.core.single_step import SingleStepFanScaling
        from repro.thermal.steady_state import SteadyStateServerModel

        class OddModel(SteadyStateServerModel):
            pass

        cfg = ServerConfig()
        base = build_global_controller("rcoord_atref_ssfan", cfg)
        odd = GlobalController(
            control=cfg.control,
            fan_controller=base.fan_controller,
            coordinator=base.coordinator,
            cpu_capper=base.cpu_capper,
            setpoint=base.setpoint,
            single_step=SingleStepFanScaling(OddModel(cfg)),
        )
        reason = batch_controller_unsupported_reason(odd)
        assert reason is not None and "SSfan model" in reason

        eco = GlobalController(
            control=cfg.control,
            fan_controller=base.fan_controller,
            coordinator=EnergyAwareCoordinator(OddModel(cfg)),
            cpu_capper=base.cpu_capper,
        )
        reason = batch_controller_unsupported_reason(eco)
        assert reason is not None and "E-coord model" in reason

    def test_subclasses_unsupported(self):
        cfg = ServerConfig()
        base = build_global_controller("rcoord", cfg)

        class OddController(GlobalController):
            pass

        odd = OddController(
            control=cfg.control,
            fan_controller=base.fan_controller,
            coordinator=base.coordinator,
        )
        reason = batch_controller_unsupported_reason(odd)
        assert reason is not None and "OddController" in reason

        class OddCapper(DeadzoneCpuCapper):
            pass

        capped = GlobalController(
            control=cfg.control,
            fan_controller=base.fan_controller,
            coordinator=base.coordinator,
            cpu_capper=OddCapper(t_low_c=76.0, t_high_c=80.0),
        )
        reason = batch_controller_unsupported_reason(capped)
        assert reason is not None and "OddCapper" in reason

    def test_fan_only_composition_supported(self):
        """No capper (Figs 3/4 wiring) still vectorizes."""
        from repro.sim.scenarios import build_fan_controller

        cfg = ServerConfig()
        controller = GlobalController(
            control=cfg.control,
            fan_controller=build_fan_controller(cfg),
        )
        assert batch_controller_unsupported_reason(controller) is None
