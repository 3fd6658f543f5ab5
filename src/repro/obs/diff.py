"""First-divergence locator for runs, results, and golden traces.

The bit-for-bit backend contract (docs/backends.md) and the golden-trace
suite tell you *that* two runs differ; this module tells you *where*:
the first recorded step and channel at which two runs part ways, with
both values and the simulation time.  That turns a conformance or
regression failure into a one-command diagnosis::

    python -m repro.obs.diff golden_a.json golden_b.json
    python -m repro.obs.diff --decision-only run_a.json run_b.json

The CLI consumes the golden-fixture JSON layout written by
``tools/regen_golden.py`` (rack payloads with a ``servers`` list, room
payloads with a ``racks`` list).  The API works on any channel mapping:
:func:`diff_channels` for two ``{name: samples}`` dicts,
:func:`diff_results` for two single-server results,
:func:`diff_fleet_results` for fleet/room results, and
:func:`diff_vs_golden` for a fresh result against a committed fixture.

Comparisons are exact by default (NaN == NaN, so dropout windows do not
read as divergence); pass ``rtol``/``atol`` for a looser comparison,
or restrict to :data:`DECISION_CHANNELS` - the channels that carry the
control loop's decisions.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import ObsError
from repro.sim.engine import TELEMETRY_CHANNELS

__all__ = [
    "DECISION_CHANNELS",
    "Divergence",
    "diff_channels",
    "diff_results",
    "diff_fleet_results",
    "diff_vs_golden",
    "main",
]

#: Channels that carry the control loop's decisions (the rest are the
#: plant's thermal trajectories).
DECISION_CHANNELS = (
    "time",
    "tmeas",
    "fan_speed",
    "cpu_cap",
    "demand",
    "applied",
    "t_ref",
)


@dataclass(frozen=True)
class Divergence:
    """The first recorded sample at which two runs differ.

    ``index`` is the record index (after any decimation/subsampling the
    compared arrays carry); ``time_s`` is the simulation time of that
    record when a ``time`` channel was available.  ``where`` localizes
    the server (e.g. ``"server 3"`` or ``"rack 1/server 0"``).
    """

    index: int
    channel: str
    a: float
    b: float
    time_s: float | None = None
    where: str = ""

    def describe(self) -> str:
        """One-line human-readable location report."""
        place = f" [{self.where}]" if self.where else ""
        when = "" if self.time_s is None else f" (t={self.time_s:g}s)"
        return (
            f"first divergence{place}: step {self.index}{when} "
            f"channel {self.channel!r}: {self.a!r} != {self.b!r}"
        )


def _default_channels(a: Mapping[str, Any], b: Mapping[str, Any]) -> list[str]:
    shared = set(a) & set(b)
    ordered = [name for name in TELEMETRY_CHANNELS if name in shared]
    ordered += sorted(shared - set(ordered))
    return ordered


def diff_channels(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    *,
    channels: Sequence[str] | None = None,
    rtol: float = 0.0,
    atol: float = 0.0,
    where: str = "",
) -> Divergence | None:
    """First divergent (step, channel) between two channel mappings.

    Returns ``None`` when every compared channel matches.  Channels
    default to the shared names in recording order; NaNs compare equal
    so dropout windows are not spurious divergences.  Ties at the same
    record index resolve to the earlier channel in recording order.
    """
    if channels is None:
        names = _default_channels(a, b)
    else:
        names = list(channels)
        for name in names:
            if name not in a or name not in b:
                raise ObsError(
                    f"channel {name!r} missing from one of the runs"
                )
    if not names:
        raise ObsError("no shared channels to compare")
    best: tuple[int, int] | None = None
    best_report: tuple[str, float, float] | None = None
    for pos, name in enumerate(names):
        x = np.asarray(a[name], dtype=float)
        y = np.asarray(b[name], dtype=float)
        if x.shape != y.shape:
            raise ObsError(
                f"channel {name!r} shapes differ: {x.shape} vs {y.shape} "
                "- the runs recorded different grids"
            )
        if rtol or atol:
            neq = ~np.isclose(x, y, rtol=rtol, atol=atol, equal_nan=True)
        else:
            neq = (x != y) & ~(np.isnan(x) & np.isnan(y))
        hits = np.flatnonzero(neq)
        if hits.size:
            i = int(hits[0])
            if best is None or (i, pos) < best:
                best = (i, pos)
                best_report = (name, float(x[i]), float(y[i]))
    if best is None:
        return None
    index = best[0]
    name, av, bv = best_report
    time_s = None
    times = a.get("time")
    if times is not None and index < len(times):
        time_s = float(np.asarray(times, dtype=float)[index])
    return Divergence(
        index=index, channel=name, a=av, b=bv, time_s=time_s, where=where
    )


def _server_channel_maps(result: Any) -> list[tuple[str, Mapping[str, Any]]]:
    """Flatten any result/payload shape to labelled per-server channels."""
    if isinstance(result, Mapping):
        if "racks" in result:
            return [
                (f"rack {r}/server {s}", server["channels"])
                for r, rack in enumerate(result["racks"])
                for s, server in enumerate(rack["servers"])
            ]
        if "servers" in result:
            return [
                (f"server {s}", server["channels"])
                for s, server in enumerate(result["servers"])
            ]
        return [("", result.get("channels", result))]
    rack_results = getattr(result, "rack_results", None)
    if rack_results is not None:
        return [
            (f"rack {r}/server {s}", server.channels)
            for r, rack in enumerate(rack_results)
            for s, server in enumerate(rack.server_results)
        ]
    server_results = getattr(result, "server_results", None)
    if server_results is not None:
        return [
            (f"server {s}", server.channels)
            for s, server in enumerate(server_results)
        ]
    channels = getattr(result, "channels", None)
    if channels is not None:
        return [("", channels)]
    raise ObsError(
        f"cannot extract channels from {type(result).__name__}; expected a "
        "SimulationResult/FleetResult/RoomResult or a golden-trace payload"
    )


def _first_over_servers(
    pairs_a: list[tuple[str, Mapping[str, Any]]],
    pairs_b: list[tuple[str, Mapping[str, Any]]],
    **kwargs: Any,
) -> Divergence | None:
    if len(pairs_a) != len(pairs_b):
        raise ObsError(
            f"server counts differ: {len(pairs_a)} vs {len(pairs_b)}"
        )
    best: Divergence | None = None
    for (where, chan_a), (_, chan_b) in zip(pairs_a, pairs_b):
        found = diff_channels(chan_a, chan_b, where=where, **kwargs)
        if found is not None and (best is None or found.index < best.index):
            best = found
    return best


def diff_results(
    a: Any,
    b: Any,
    *,
    channels: Sequence[str] | None = None,
    rtol: float = 0.0,
    atol: float = 0.0,
) -> Divergence | None:
    """First divergence between two single-server simulation results."""
    return diff_channels(
        a.channels, b.channels, channels=channels, rtol=rtol, atol=atol
    )


def diff_fleet_results(
    a: Any,
    b: Any,
    *,
    channels: Sequence[str] | None = None,
    rtol: float = 0.0,
    atol: float = 0.0,
) -> Divergence | None:
    """First divergence between two fleet or room results.

    Scans every server and returns the divergence with the smallest
    record index (earliest simulation time on a shared grid).
    """
    return _first_over_servers(
        _server_channel_maps(a),
        _server_channel_maps(b),
        channels=channels,
        rtol=rtol,
        atol=atol,
    )


def diff_vs_golden(
    result: Any,
    payload: Mapping[str, Any],
    *,
    channels: Sequence[str] | None = None,
    rtol: float = 0.0,
    atol: float = 0.0,
) -> Divergence | None:
    """First divergence between a fresh result and a golden fixture.

    Applies the fixture's ``subsample`` stride to the result's recorded
    channels so both sides sit on the fixture grid; the reported index
    is on that subsampled grid (its ``time_s`` disambiguates).
    """
    stride = int(payload.get("subsample", 1))
    fresh = _server_channel_maps(result)
    if stride > 1:
        fresh = [
            (
                where,
                {
                    name: np.asarray(values)[::stride]
                    for name, values in chan.items()
                },
            )
            for where, chan in fresh
        ]
    return _first_over_servers(
        fresh,
        _server_channel_maps(payload),
        channels=channels,
        rtol=rtol,
        atol=atol,
    )


def _load_payload(path: str) -> Mapping[str, Any]:
    file = Path(path)
    if not file.exists():
        raise ObsError(f"no such run file: {path}")
    try:
        payload = json.loads(file.read_text())
    except json.JSONDecodeError as exc:
        raise ObsError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ObsError(f"{path}: expected a JSON object of channels")
    return payload


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: diff two golden-format run files."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.diff",
        description=(
            "Report the first (step, channel) where two recorded runs "
            "diverge.  Inputs are golden-trace JSON files as written by "
            "tools/regen_golden.py.  Exit status: 0 identical, 1 "
            "divergent, 2 on input errors."
        ),
    )
    parser.add_argument("run_a", help="baseline run JSON")
    parser.add_argument("run_b", help="candidate run JSON")
    parser.add_argument(
        "--channels",
        help="comma-separated channel subset (default: all shared channels)",
    )
    parser.add_argument(
        "--decision-only",
        action="store_true",
        help=(
            "compare only the decision channels: "
            + ", ".join(DECISION_CHANNELS)
        ),
    )
    parser.add_argument(
        "--rtol", type=float, default=0.0, help="relative tolerance (default 0)"
    )
    parser.add_argument(
        "--atol", type=float, default=0.0, help="absolute tolerance (default 0)"
    )
    args = parser.parse_args(argv)
    if args.channels and args.decision_only:
        parser.error("--channels and --decision-only are mutually exclusive")
    channels: Sequence[str] | None = None
    if args.decision_only:
        channels = DECISION_CHANNELS
    elif args.channels:
        channels = [name.strip() for name in args.channels.split(",") if name.strip()]
    try:
        pairs_a = _server_channel_maps(_load_payload(args.run_a))
        pairs_b = _server_channel_maps(_load_payload(args.run_b))
        found = _first_over_servers(
            pairs_a, pairs_b, channels=channels, rtol=args.rtol, atol=args.atol
        )
    except ObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if found is None:
        n_channels = len(channels) if channels else "all shared"
        print(
            f"runs identical across {len(pairs_a)} server(s) "
            f"({n_channels} channels)"
        )
        return 0
    print(found.describe())
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
