"""Golden-trace reproduction: every backend against pinned fixtures.

``tests/golden/`` holds one canonical rack run per Table III scheme and
one faulted room (CRAC brownout), generated on the scalar reference
backend by ``tools/regen_golden.py``.  Replaying them here pins the
backend contract against *stored* values, so a regression that shifts
every live backend the same way (which the pairwise equivalence tests
cannot see) still fails: every backend must reproduce the fixtures
**bit-for-bit** (JSON round-trips floats exactly).

After an intentional behaviour change, regenerate with
``PYTHONPATH=src python tools/regen_golden.py`` and commit the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import FleetConfig
from repro.fleet import FleetSimulator, build_fleet_scenario
from repro.room.campaign import RoomTask, run_room_task

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RACK_FIXTURES = sorted(GOLDEN_DIR.glob("rack_*.json"))
ROOM_FIXTURE = GOLDEN_DIR / "room_crac_brownout.json"

BACKENDS = ("scalar", "vectorized", "fused")


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _assert_fleet_matches(result, fixture_payload, subsample, tag):
    """One FleetResult against one fixture's servers/mean-inlet block."""
    servers = fixture_payload["servers"]
    assert result.n_servers == len(servers), tag
    for i, expected in enumerate(servers):
        got = result.server(i)
        for name, pinned in expected["channels"].items():
            live = np.asarray(got.channels[name])[::subsample]
            assert np.array_equal(live, np.asarray(pinned), equal_nan=True), (
                f"{tag}: server {i} channel {name} diverged from golden"
            )
        summary = got.summary()
        for key, pinned in expected["summary"].items():
            assert summary[key] == pinned, f"{tag}: server {i} {key}"
    assert np.array_equal(
        np.asarray(result.mean_inlet_c),
        np.asarray(fixture_payload["mean_inlet_c"]),
    ), tag


@pytest.mark.parametrize(
    "fixture_path", RACK_FIXTURES, ids=lambda p: p.stem
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_rack_golden_traces(fixture_path, backend):
    fixture = _load(fixture_path)
    p = fixture["params"]
    rack = build_fleet_scenario(
        p["scenario"],
        n_servers=p["n_servers"],
        duration_s=p["duration_s"],
        seed=p["seed"],
        fleet=FleetConfig(
            n_servers=p["n_servers"],
            recirc_fraction=p["recirc_fraction"],
        ),
        scheme=fixture["scheme"],
    )
    sim = FleetSimulator(
        rack,
        dt_s=p["dt_s"],
        record_decimation=p["record_decimation"],
        backend=backend,
    )
    result = sim.run(p["duration_s"], label=fixture_path.stem)
    assert result.extras["backend"] == backend
    _assert_fleet_matches(
        result,
        fixture,
        fixture["subsample"],
        f"{fixture_path.stem}/{backend}",
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_room_golden_trace(backend):
    fixture = _load(ROOM_FIXTURE)
    result = run_room_task(RoomTask(backend=backend, **fixture["params"]))
    assert result.extras["backend"] == backend
    for r, rack_payload in enumerate(fixture["racks"]):
        _assert_fleet_matches(
            result.rack_results[r],
            rack_payload,
            fixture["subsample"],
            f"room/rack{r}/{backend}",
        )
    assert np.array_equal(
        np.asarray(result.supply_c), np.asarray(fixture["supply_c"])
    )
    assert result.crac_energy_j == fixture["crac_energy_j"]
    # The fault summary (event counts, impact windows) is backend-
    # independent: shared injector state, identical decision sequences.
    live_faults = json.loads(json.dumps(result.extras["faults"]))
    assert live_faults == fixture["faults"]
