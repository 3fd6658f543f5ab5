#!/usr/bin/env python
"""Regenerate the golden-trace fixtures in ``tests/golden/``.

Each fixture pins one canonical closed-loop run as JSON: subsampled
telemetry channels (exact float64 values - ``json`` round-trips Python
floats via ``repr``, so equality checks against them are bit-for-bit),
per-server summaries, and mean inlet temperatures.  There is one rack
fixture per Table III scheme plus one faulted room (a CRAC brownout).

All fixtures are generated on the **scalar** backend - the reference
loop of the contract in ``docs/backends.md``.
``tests/test_golden_traces.py`` then replays every fixture on every
backend, and each must reproduce the traces bit-for-bit.

Run from the repo root after an intentional behaviour change::

    PYTHONPATH=src python tools/regen_golden.py

and commit the diff alongside the change that caused it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.config import FleetConfig, RoomConfig  # noqa: E402
from repro.fleet import FleetSimulator, build_fleet_scenario  # noqa: E402
from repro.room.campaign import RoomTask, run_room_task  # noqa: E402

GOLDEN_DIR = _REPO_ROOT / "tests" / "golden"

#: Table III coordination schemes, one rack fixture each.
SCHEMES = (
    "uncoordinated",
    "rcoord",
    "rcoord_atref",
    "ecoord",
    "rcoord_atref_ssfan",
)

#: Canonical rack-run parameters (shared by the replay test).
RACK_PARAMS = {
    "scenario": "homogeneous",
    "n_servers": 4,
    "seed": 11,
    "recirc_fraction": 0.3,
    "duration_s": 60.0,
    "dt_s": 0.1,
    "record_decimation": 5,
}

#: Canonical faulted-room parameters: the room-scoped CRAC-brownout
#: fault scenario builds both the room and its schedule from the seed.
ROOM_PARAMS = {
    "scenario": "crac_brownout",
    "n_rows": 1,
    "racks_per_row": 2,
    "servers_per_rack": 3,
    "containment": "none",
    "seed": 5,
    "duration_s": 60.0,
    "dt_s": 0.1,
    "record_decimation": 5,
    "scheme": "rcoord_atref",
}

#: Keep every SUBSAMPLE-th recorded point; full traces stay reproducible
#: from the parameters while the fixtures stay reviewable in a diff.
SUBSAMPLE = 4


def _server_payload(server_result) -> dict:
    channels = {
        name: [float(v) for v in values[::SUBSAMPLE]]
        for name, values in sorted(server_result.channels.items())
    }
    return {
        "channels": channels,
        "summary": {
            key: float(value)
            for key, value in sorted(server_result.summary().items())
        },
    }


def _fleet_payload(result) -> dict:
    return {
        "servers": [
            _server_payload(result.server(i)) for i in range(result.n_servers)
        ],
        "mean_inlet_c": [float(v) for v in result.mean_inlet_c],
    }


def build_rack_fixture(scheme: str) -> dict:
    p = RACK_PARAMS
    rack = build_fleet_scenario(
        p["scenario"],
        n_servers=p["n_servers"],
        duration_s=p["duration_s"],
        seed=p["seed"],
        fleet=FleetConfig(
            n_servers=p["n_servers"], recirc_fraction=p["recirc_fraction"]
        ),
        scheme=scheme,
    )
    sim = FleetSimulator(
        rack,
        dt_s=p["dt_s"],
        record_decimation=p["record_decimation"],
        backend="scalar",
    )
    result = sim.run(p["duration_s"], label=f"golden/{scheme}")
    assert result.extras["backend"] == "scalar"
    return {
        "kind": "rack",
        "scheme": scheme,
        "params": dict(p),
        "subsample": SUBSAMPLE,
        "generator_backend": "scalar",
        **_fleet_payload(result),
    }


def build_room_fixture() -> dict:
    task = RoomTask(backend="scalar", **ROOM_PARAMS)
    result = run_room_task(task)
    assert result.extras["backend"] == "scalar"
    return {
        "kind": "room",
        "params": dict(ROOM_PARAMS),
        "subsample": SUBSAMPLE,
        "generator_backend": "scalar",
        "racks": [
            _fleet_payload(rack_result)
            for rack_result in result.rack_results
        ],
        "supply_c": [float(v) for v in result.supply_c],
        "crac_energy_j": float(result.crac_energy_j),
        "faults": result.extras["faults"],
    }


def fixture_files() -> dict[str, object]:
    """Fixture file name -> builder, the single source the test reuses."""
    files: dict[str, object] = {
        f"rack_{scheme}.json": lambda scheme=scheme: build_rack_fixture(
            scheme
        )
        for scheme in SCHEMES
    }
    files["room_crac_brownout.json"] = build_room_fixture
    return files


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, builder in fixture_files().items():
        payload = builder()
        path = GOLDEN_DIR / name
        path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {path.relative_to(_REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
