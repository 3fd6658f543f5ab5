"""Room and stacked-rack runs on the lockstep rack driver.

A room *is* one flat rack under its sparse operator, and so is a chunk
of independent racks stacked side by side under their block-diagonal
one.  Both run through :class:`~repro.fleet.simulator.LockstepDriver`,
the same driver :class:`~repro.fleet.simulator.FleetSimulator` uses:

* :class:`RoomSimulator` advances every server of every rack in a
  :class:`~repro.room.room.Room` through the same time grid.  On the
  ``"vectorized"`` lane (alias ``"fused"``) all racks stack into **one**
  ``(R*B,)``-wide :class:`~repro.sim.batch.BatchStepper`, with the
  room's :class:`~repro.room.coupling.SparseCoupling` applied as a
  block-sparse mat-vec once per control window; the ``"scalar"`` lane
  steps one :class:`~repro.sim.engine.ServerStepper` per server with the
  coupling applied once per ``dt``, the bit-for-bit reference.
  ``backend="auto"`` (the default) stacks whenever the room's plants
  and sensors support batching, falling back to scalar (with the reason
  recorded in ``RoomResult.extras``) otherwise.
* :func:`run_stacked_racks` runs many same-shape racks as one stacked
  batch.  The batch lane's throughput comes from amortizing its Python
  dispatch over the batch width, so R racks of B servers run faster as
  one ``(R*B,)`` batch than as R separate ``(B,)`` runs; campaigns use
  it for chunks of same-shape rack tasks.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SimulationError
from repro.fleet.rack import Rack
from repro.fleet.result import FleetResult
from repro.fleet.simulator import LockstepDriver
from repro.room.coupling import SparseCoupling
from repro.room.result import RoomResult
from repro.room.room import Room
from repro.sim.batch import batch_unsupported_reason, check_batch_backend


class RoomSimulator(LockstepDriver):
    """Step a whole room in lockstep with sparse recirculation coupling.

    Parameters mirror :class:`~repro.fleet.simulator.FleetSimulator`,
    plus ``inlet_limit_c`` feeding the room result's supply-margin
    metric (default: the room's own limit, which scenario builders take
    from :attr:`~repro.config.RoomConfig.inlet_limit_c`).
    """

    def __init__(
        self,
        room: Room,
        dt_s: float = 0.1,
        record_decimation: int = 1,
        violation_tolerance: float = 0.01,
        degradation_window: int = 10,
        backend: str = "auto",
        inlet_limit_c: float | None = None,
        faults=None,
        obs=None,
    ) -> None:
        super().__init__(
            dt_s,
            record_decimation,
            violation_tolerance,
            degradation_window,
            backend,
            faults,
            obs,
        )
        self._room = room
        self._inlet_limit_c = (
            room.inlet_limit_c if inlet_limit_c is None else inlet_limit_c
        )

    @property
    def room(self) -> Room:
        """The room being simulated."""
        return self._room

    def _bind_faults(self, injector) -> None:
        """Room runs route CRAC events into the room coupling."""
        injector.bind_coupling(self._room.coupling, len(self._room.cracs))

    def _monitor_scope(self) -> dict:
        """Room runs also check inlets against the supply limit."""
        return {"room": self._room, "inlet_limit_c": self._inlet_limit_c}

    def run(self, duration_s: float, label: str = "room") -> RoomResult:
        """Simulate the whole room for ``duration_s`` seconds."""
        room = self._room
        rack_results, extras = self.run_lockstep(
            room,
            room.racks,
            [f"{label}/rack{r:02d}" for r in range(room.n_racks)],
            duration_s,
            label,
        )
        crac_energy = 0.0
        for crac in room.cracs:
            heat_j = sum(
                rack_results[r].metrics.total_energy_j for r in crac.racks
            )
            crac_energy += crac.energy_j(heat_j)
        extras["n_racks"] = room.n_racks
        extras["stacked_width"] = room.n_servers
        extras["containment"] = room.topology.containment
        return RoomResult(
            rack_results=tuple(rack_results),
            supply_c=room.supply_temperatures_c(),
            crac_energy_j=crac_energy,
            inlet_limit_c=self._inlet_limit_c,
            label=label,
            extras=extras,
        )


def stacked_unsupported_reason(racks: Sequence[Rack]) -> str | None:
    """Why these racks cannot run as one stacked batch (None = they can)."""
    if not racks:
        return "no racks"
    exhaust = racks[0].exhaust
    for r, rack in enumerate(racks[1:], start=1):
        if not exhaust.same_parameters(rack.exhaust):
            return (
                f"rack {r}'s exhaust parameters differ from rack 0's; the "
                "stacked batch shares one exhaust model"
            )
    return batch_unsupported_reason(
        [slot.plant for rack in racks for slot in rack],
        [slot.sensor for rack in racks for slot in rack],
        coupled=True,
    )


def run_stacked_racks(
    racks: Sequence[Rack],
    duration_s: float,
    dt_s: float = 0.1,
    record_decimation: int = 1,
    violation_tolerance: float = 0.01,
    degradation_window: int = 10,
    labels: Sequence[str] | None = None,
    backend: str = "vectorized",
) -> list[FleetResult]:
    """Run R independent racks as one stacked ``(R*B,)`` batch.

    The racks couple block-diagonally (each only recirculates into
    itself), so every per-rack result is bit-for-bit identical to a
    standalone ``FleetSimulator(backend="vectorized")`` run of that
    rack, plus a ``"stacked"`` entry in its ``extras`` describing the
    stack it rode in.  ``backend`` names the batch lane (``"vectorized"``
    or its alias ``"fused"``); raises
    :class:`~repro.errors.SimulationError` when the racks cannot stack
    (see :func:`stacked_unsupported_reason`).
    """
    check_batch_backend(backend)
    reason = stacked_unsupported_reason(racks)
    if reason is not None:
        raise SimulationError(f"stacked batch unsupported: {reason}")
    if labels is None:
        labels = [f"rack{r:02d}" for r in range(len(racks))]
    flat = Rack(
        [slot for rack in racks for slot in rack],
        coupling=SparseCoupling.from_racks(racks),
        exhaust=racks[0].exhaust,
    )
    driver = LockstepDriver(
        dt_s,
        record_decimation,
        violation_tolerance,
        degradation_window,
        backend,
    )
    results, _ = driver.run_lockstep(flat, racks, labels, duration_s, "stacked")
    return results
