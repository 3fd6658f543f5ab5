"""Property-based backend-conformance suite: one bit-for-bit contract.

``docs/backends.md`` defines equivalence between the execution backends
as a single tier: the array lane (``"vectorized"``, and ``"fused"``, an
alias of it) reproduces the scalar reference loop *bit for bit* - every
telemetry channel, energy total, summary, mean inlet and fault summary
agrees to the last bit, whatever the topology, workload, scheme, or
fault schedule.  No assertion here carries a tolerance.

The randomized tests draw topologies (rack width, recirculation
fraction), workloads/seeds, Table III schemes, and fault schedules from
hypothesis; the boundary cases run past the 4096-step chunk, through
several fan decisions, with fault onsets on chunk, window and control
instants.  The deterministic tests pin every scheme on the array lane
(zero controller fallbacks), scalar-resume-after-batch sync-back, the
accepted backend names, and every room scenario.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import FleetConfig, RoomConfig
from repro.errors import SimulationError
from repro.faults.events import FaultEvent, FaultSchedule
from repro.fleet import FleetSimulator, build_fleet_scenario
from repro.fleet.simulator import BACKENDS as FLEET_BACKENDS
from repro.room import RoomSimulator, run_stacked_racks, uniform_room
from repro.room.scenarios import ROOM_SCENARIOS, build_room_scenario
from repro.sim.batch import _CHUNK_STEPS, BATCH_BACKENDS, run_batch

_DT = 0.1

#: The array lane under both of its names.
ARRAY_BACKENDS = ("vectorized", "fused")

#: Table III coordination schemes; all five must ride the array lane.
SCHEMES = (
    "uncoordinated",
    "rcoord",
    "rcoord_atref",
    "ecoord",
    "rcoord_atref_ssfan",
)


def _rack(scheme, n=4, seed=11, recirc=0.3, duration=60.0):
    return build_fleet_scenario(
        "homogeneous",
        n_servers=n,
        duration_s=duration,
        seed=seed,
        fleet=FleetConfig(n_servers=n, recirc_fraction=recirc),
        scheme=scheme,
    )


def _run(backend, scheme, n=4, seed=11, recirc=0.3, duration=60.0,
         dec=5, faults=None):
    sim = FleetSimulator(
        _rack(scheme, n=n, seed=seed, recirc=recirc, duration=duration),
        dt_s=_DT,
        record_decimation=dec,
        backend=backend,
        faults=faults,
    )
    result = sim.run(duration, label=f"{scheme}/{backend}")
    assert result.extras["backend"] == backend
    return result


def assert_exact(scalar, lane):
    """A lane's fleet result must equal the scalar one to the last bit."""
    assert scalar.n_servers == lane.n_servers
    for i in range(scalar.n_servers):
        rs, rl = scalar.server(i), lane.server(i)
        for name, channel in rs.channels.items():
            assert np.array_equal(
                channel, rl.channels[name], equal_nan=True
            ), f"server {i} channel {name} diverged"
        assert rs.summary() == rl.summary(), f"server {i} summary"
    assert scalar.mean_inlet_c == lane.mean_inlet_c
    if "faults" in scalar.extras or "faults" in lane.extras:
        assert scalar.extras["faults"] == lane.extras["faults"]


def _assert_contract(case, **kw):
    scalar = _run("scalar", case["scheme"], **kw)
    for backend in ARRAY_BACKENDS:
        assert_exact(scalar, _run(backend, case["scheme"], **kw))


class TestTableThreeSchemes:
    """All five schemes, every backend, array lane end to end."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_two_tier_contract(self, scheme):
        """(Historic name: the contract is now a single exact tier.)"""
        scalar = _run("scalar", scheme)
        for backend in ARRAY_BACKENDS:
            assert_exact(scalar, _run(backend, scheme))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fused_keeps_whole_rack_on_array_lane(self, scheme):
        """No silent scalar-controller fallback on any scheme."""
        fused = _run("fused", scheme)
        assert fused.extras["controller_backend"] == "vectorized"
        assert "controller_fallbacks" not in fused.extras

    def test_backend_registry_names(self):
        """``"fused"`` stays an accepted alias; unknown names raise."""
        assert BATCH_BACKENDS == ARRAY_BACKENDS
        assert FLEET_BACKENDS == ("auto", "scalar") + ARRAY_BACKENDS
        with pytest.raises(SimulationError, match="unknown backend"):
            FleetSimulator(_rack("rcoord"), backend="closed_form")
        with pytest.raises(SimulationError, match="unknown backend"):
            RoomSimulator(
                uniform_room(RoomConfig(n_rows=1, racks_per_row=1)),
                backend="closed_form",
            )
        with pytest.raises(SimulationError, match="unknown batch backend"):
            run_batch([], backend="scalar")
        with pytest.raises(SimulationError, match="unknown batch backend"):
            run_stacked_racks([_rack("rcoord")], 1.0, backend="gpu")


# Fault kinds the randomized schedules draw from, with magnitude rules.
_FAULT_KINDS = st.sampled_from(
    ["dropout", "stuck", "offset", "fan_seize", "fouling", "drift"]
)


@st.composite
def _fault_events(draw, n, starts, durations):
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(_FAULT_KINDS)
        magnitude = None
        if kind == "offset":
            magnitude = draw(st.sampled_from([-4.0, -1.5, 2.0, 5.0]))
        elif kind == "fouling":
            magnitude = draw(st.sampled_from([0.1, 0.3, 0.6]))
        elif kind == "drift":
            magnitude = draw(st.sampled_from([0.005, 0.02, 0.05]))
        events.append(
            FaultEvent(
                kind=kind,
                server=draw(st.integers(min_value=0, max_value=n - 1)),
                start_s=draw(st.sampled_from(starts)),
                duration_s=draw(st.sampled_from(durations)),
                magnitude=magnitude,
            )
        )
    return FaultSchedule(events)


@st.composite
def _conformance_case(draw, with_faults=False):
    n = draw(st.integers(min_value=2, max_value=5))
    case = {
        "n": n,
        "scheme": draw(st.sampled_from(SCHEMES)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "recirc": draw(
            st.floats(min_value=0.0, max_value=0.45,
                      allow_nan=False, allow_infinity=False)
        ),
        "dec": draw(st.integers(min_value=1, max_value=7)),
        "duration": draw(st.sampled_from([20.0, 30.0, 40.0])),
    }
    if with_faults:
        case["faults"] = draw(
            _fault_events(n, [3.0, 7.5, 12.0], [5.0, 10.0, 20.0])
        )
    return case


def _kwargs(case):
    kw = dict(n=case["n"], seed=case["seed"], recirc=case["recirc"],
              duration=case["duration"], dec=case["dec"])
    if "faults" in case:
        kw["faults"] = case["faults"]
    return kw


class TestRandomizedConformance:
    """Hypothesis: the contract holds across random topologies,
    workloads (per-server seeded), schemes, and fault schedules.
    (Historic test names: the contract is now a single exact tier.)"""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_conformance_case())
    def test_two_tier_contract_randomized(self, case):
        _assert_contract(case, **_kwargs(case))

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_conformance_case(with_faults=True))
    def test_two_tier_contract_under_faults(self, case):
        _assert_contract(case, **_kwargs(case))


#: The first chunk ends at step _CHUNK_STEPS, i.e. t = 409.6 s.
_CHUNK_END_S = _CHUNK_STEPS * _DT

#: Fault onsets on the instants where the array lane changes gear: the
#: last step of the first chunk and the first of the next, control
#: instants (window ends, every 1 s) and the steps right after them
#: (window starts), and fan decisions (every 30 s).
_BOUNDARY_STARTS = [
    round(_CHUNK_END_S, 1),
    round(_CHUNK_END_S + _DT, 1),
    60.0,
    60.1,
    90.0,
    410.0,
    410.1,
    420.0,
]


@st.composite
def _boundary_case(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    return {
        "n": n,
        "scheme": draw(st.sampled_from(SCHEMES)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "recirc": draw(st.sampled_from([0.0, 0.2, 0.4])),
        "dec": draw(st.integers(min_value=1, max_value=9)),
        # > _CHUNK_STEPS steps and >= 13 fan decisions (every 30 s).
        "duration": draw(st.sampled_from([410.0, 423.7, 450.0])),
        "faults": draw(
            _fault_events(n, _BOUNDARY_STARTS, [0.1, 1.0, 9.9, 30.0])
        ),
    }


class TestBoundaryConformance:
    """Exact equality where array-lane bugs live: past the demand chunk,
    across many fan decisions, with faults switching on chunk, window
    and control instants."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_boundary_case())
    def test_exact_across_chunk_window_and_control_boundaries(self, case):
        assert case["duration"] / _DT > _CHUNK_STEPS
        _assert_contract(case, **_kwargs(case))


class TestScalarResumeAfterFused:
    """The batch stepper syncs state back into the scalar objects, so a
    follow-up scalar run continues from where the batch left off."""

    def test_sync_back_state_matches_vectorized(self):
        rack_s = _rack("rcoord_atref")
        rack_f = _rack("rcoord_atref")
        FleetSimulator(rack_s, dt_s=_DT, backend="scalar").run(30.0)
        FleetSimulator(rack_f, dt_s=_DT, backend="fused").run(30.0)
        for slot_s, slot_f in zip(rack_s, rack_f):
            assert slot_f.sensor.is_primed
            assert slot_s.plant.state == slot_f.plant.state
            assert slot_s.inlet.offset_c == slot_f.inlet.offset_c

    def test_scalar_resume_trajectories_stay_bounded(self):
        """Resumed scalar runs from scalar- and fused-synced racks are
        identical (the resumed lane is scalar on both sides; only the
        starting state could differ, and it does not)."""
        rack_s = _rack("rcoord_atref")
        rack_f = _rack("rcoord_atref")
        FleetSimulator(rack_s, dt_s=_DT, backend="scalar").run(30.0)
        FleetSimulator(rack_f, dt_s=_DT, backend="fused").run(30.0)
        res_s = FleetSimulator(rack_s, dt_s=_DT, backend="auto").run(20.0)
        res_f = FleetSimulator(rack_f, dt_s=_DT, backend="auto").run(20.0)
        # Primed sensors force the scalar reference loop on both racks.
        assert res_s.extras["backend"] == "scalar"
        assert res_f.extras["backend"] == "scalar"
        assert_exact(res_s, res_f)


def _assert_room_exact(scalar, lane, backend):
    for rs, rl in zip(scalar.rack_results, lane.rack_results):
        assert_exact(rs, rl)
        assert rl.extras["backend"] == backend
    assert scalar.supply_c == lane.supply_c
    assert scalar.crac_energy_j == lane.crac_energy_j


class TestRoomConformance:
    """The contract holds one level up: stacked rooms with sparse
    cross-rack coupling and CRAC supply dynamics."""

    def _room_result(self, backend):
        config = RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=3)
        room = uniform_room(config, duration_s=40.0, seed=5)
        sim = RoomSimulator(
            room, dt_s=_DT, record_decimation=4, backend=backend
        )
        result = sim.run(40.0)
        assert result.extras["backend"] == backend
        return result

    def test_room_two_tier_contract(self):
        """(Historic name: the contract is now a single exact tier.)"""
        scalar = self._room_result("scalar")
        for backend in ARRAY_BACKENDS:
            _assert_room_exact(scalar, self._room_result(backend), backend)

    @pytest.mark.parametrize("scenario", sorted(ROOM_SCENARIOS))
    def test_room_scenarios_exact(self, scenario):
        """Every room builder: odd rack widths, aisle cross-terms and CRAC
        feedback all go through the per-step operator exactly."""
        config = RoomConfig(n_rows=1, racks_per_row=2, servers_per_rack=3)
        results = {}
        for backend in ("scalar",) + ARRAY_BACKENDS:
            room = build_room_scenario(
                scenario, room=config, duration_s=40.0, seed=5
            )
            results[backend] = RoomSimulator(
                room, dt_s=_DT, record_decimation=3, backend=backend
            ).run(40.0)
        for backend in ARRAY_BACKENDS:
            _assert_room_exact(results["scalar"], results[backend], backend)

    def test_decoupled_rack_exact(self):
        """Zero recirculation: the array lane skips the operator and
        broadcasts the room air, and still matches bit for bit."""
        assert _rack("rcoord", n=3, recirc=0.0).coupling.is_decoupled
        _assert_contract(
            {"scheme": "rcoord"}, n=3, recirc=0.0, duration=40.0, dec=3
        )
