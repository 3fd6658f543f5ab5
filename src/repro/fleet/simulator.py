"""Lockstep driver for rack-shaped work.

:class:`LockstepDriver` advances a flat set of server slots - one
rack, a whole room, or a chunk of independent racks stacked side by
side - through the same time grid under one coupling operator, with two
interchangeable execution lanes:

* ``"scalar"`` - one :class:`~repro.sim.engine.ServerStepper` per slot,
  the exact loop body single-server runs use, not a reimplementation.
  Once per step any due CRAC forcing is pushed and the coupling turns
  the previous step's exhaust states into fresh inlet offsets, then all
  steppers advance by ``dt``.
* ``"vectorized"`` (alias ``"fused"``) - the
  :class:`~repro.sim.batch.BatchStepper` array lane: all servers
  advance as NumPy operations, one control window at a time, with the
  per-CPU-period control decisions going through the vectorized
  controller.  Results are bit-for-bit identical to the scalar backend
  for every rack built from the stock library classes; slots the batch
  lane cannot represent (time-varying ambients, custom plant/sensor
  subclasses, pre-used sensors) fall back to the scalar path
  automatically, recording why in ``extras["fallback_reason"]``.

``backend="auto"`` (the default) picks vectorized whenever the slots
support it.  :class:`FleetSimulator` runs one rack through the driver,
:class:`~repro.room.simulator.RoomSimulator` a whole room and
:func:`~repro.room.simulator.run_stacked_racks` a chunk of independent
racks.  With a decoupled rack the scalar and vectorized backends reduce
to N independent single-server simulations bit-for-bit.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.fleet.rack import Rack
from repro.fleet.result import FleetResult
from repro.obs.collector import resolve_obs
from repro.sim.batch import BatchStepper, batch_unsupported_reason
from repro.sim.engine import ServerStepper
from repro.units import check_duration
from repro.workload.performance import DeadlineTracker

#: Valid execution backends.
BACKENDS = ("auto", "scalar", "vectorized", "fused")


def _controller_backend(n_fallbacks: int, n_servers: int) -> str:
    """Which controller lane the batch lane's servers decided on."""
    if not n_fallbacks:
        return "vectorized"
    return "scalar" if n_fallbacks == n_servers else "mixed"


class LockstepDriver:
    """Run rack-shaped work in lockstep on the scalar or batch lane.

    Holds the run parameters every rack-shaped entry point shares (see
    :class:`FleetSimulator` for their meaning).  Subclasses decide how a
    fault schedule binds to the run (:meth:`_bind_faults`) and what
    scope the run monitor checks (:meth:`_monitor_scope`).
    """

    def __init__(
        self,
        dt_s: float = 0.1,
        record_decimation: int = 1,
        violation_tolerance: float = 0.01,
        degradation_window: int = 10,
        backend: str = "auto",
        faults=None,
        obs=None,
    ) -> None:
        if backend not in BACKENDS:
            raise SimulationError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        self._dt = check_duration(dt_s, "dt_s")
        self._decimation = record_decimation
        self._violation_tolerance = violation_tolerance
        self._degradation_window = degradation_window
        self._backend = backend
        self._faults = faults
        self._obs = resolve_obs(obs)

    @property
    def backend(self) -> str:
        """The configured execution backend."""
        return self._backend

    @property
    def obs(self):
        """The run's resolved collector (None when uninstrumented).

        A :class:`~repro.obs.live.LiveObsServer` attaches here to serve
        ``/metrics`` while the run executes.
        """
        return self._obs

    def _bind_faults(self, injector) -> None:
        """Rack runs have no CRACs: reject room-infrastructure events."""
        injector.require_no_room_faults()

    def _monitor_scope(self) -> dict:
        """Extra :func:`~repro.obs.monitor.arm_run_monitor` arguments."""
        return {}

    def run_lockstep(
        self,
        flat: Rack,
        racks: Sequence[Rack],
        labels: Sequence[str],
        duration_s: float,
        label: str,
    ) -> tuple[list[FleetResult], dict]:
        """Simulate ``flat`` for ``duration_s`` and split it per rack.

        ``flat`` holds every slot in stacking order under one coupling
        (a rack, or a room - one flat rack under its sparse operator);
        ``racks`` partitions it into one :class:`FleetResult` per rack,
        labelled by ``labels``.  ``label`` names the run for the
        monitor.  Returns the per-rack results and the run's extras:
        lane provenance plus the fault and obs summaries.  Racks split
        out of a wider flat batch record where they rode under
        ``extras["stacked"]``.
        """
        check_duration(duration_s, "duration_s")
        n_steps = int(round(duration_s / self._dt))
        if n_steps < 1:
            raise SimulationError(f"duration {duration_s} shorter than one step")
        if len(labels) != len(racks):
            raise SimulationError("need one label per rack")
        # Arm the coupling's dynamic CRAC supply filter (no-op when
        # static) so both lanes step the same RC states from zero.
        if getattr(flat.coupling, "is_dynamic", False):
            flat.coupling.prepare_run(self._dt)
        slots = flat.slots
        plants = [slot.plant for slot in slots]
        sensors = [slot.sensor for slot in slots]
        start_s = plants[0].time_s
        injector = None
        if self._faults is not None:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(self._faults, plants)
            self._bind_faults(injector)
        obs = self._obs
        if obs is not None:
            from repro.obs.monitor import arm_run_monitor

            obs.label = label
            obs.arm_stream(start_s)
            if injector is not None:
                injector.bind_obs(obs)
            arm_run_monitor(
                obs,
                plants=plants,
                controllers=[slot.controller for slot in slots],
                start_s=start_s,
                label=label,
                sensors=sensors,
                schedule=self._faults,
                **self._monitor_scope(),
            )

        reason = None
        if self._backend != "scalar":
            reason = batch_unsupported_reason(plants, sensors, coupled=True)
        server_labels = [
            f"{rack_label}/{slot.name}"
            for rack_label, rack in zip(labels, racks)
            for slot in rack
        ]
        trackers = [
            DeadlineTracker(
                tolerance=self._violation_tolerance,
                window=self._degradation_window,
            )
            for _ in slots
        ]
        run_span = obs.span("run") if obs is not None else nullcontext()
        if self._backend == "scalar" or reason is not None:
            extras = {"backend": "scalar"}
            if reason is not None:
                extras["fallback_reason"] = reason
            results, mean_inlets = self._run_scalar(
                flat, n_steps, trackers, injector, run_span, server_labels
            )
            fallbacks = None
        else:
            extras = {
                "backend": "fused" if self._backend == "fused" else "vectorized"
            }
            stepper = BatchStepper(
                plants=plants,
                sensors=sensors,
                workloads=[slot.workload for slot in slots],
                controllers=[slot.controller for slot in slots],
                n_steps=n_steps,
                dt_s=self._dt,
                record_decimation=self._decimation,
                trackers=trackers,
                coupling=flat.coupling,
                exhaust=flat.exhaust,
                injector=injector,
                obs=obs,
            )
            with run_span:
                stepper.run()
            results = stepper.finish(server_labels)
            mean_inlets = stepper.mean_inlet_c()
            fallbacks = stepper.controller_fallbacks

        rack_results = []
        start = 0
        for position, (rack, rack_label) in enumerate(zip(racks, labels)):
            stop = start + rack.n_servers
            rack_extras = dict(extras)
            if fallbacks is not None:
                rack_fallbacks = {
                    rack.slots[i - start].name: why
                    for i, why in fallbacks.items()
                    if start <= i < stop
                }
                rack_extras["controller_backend"] = _controller_backend(
                    len(rack_fallbacks), rack.n_servers
                )
                if rack_fallbacks:
                    rack_extras["controller_fallbacks"] = rack_fallbacks
                if flat is not rack:
                    rack_extras["stacked"] = {
                        "n_racks": len(racks),
                        "width": flat.n_servers,
                        "position": position,
                    }
            rack_results.append(
                FleetResult(
                    server_results=tuple(results[start:stop]),
                    mean_inlet_c=mean_inlets[start:stop],
                    label=rack_label,
                    extras=rack_extras,
                )
            )
            start = stop
        if fallbacks is not None:
            extras["controller_backend"] = _controller_backend(
                len(fallbacks), flat.n_servers
            )
        if injector is not None:
            from repro.faults.injector import attach_fault_summary

            attach_fault_summary(extras, injector, n_steps * self._dt)
        if obs is not None:
            obs.finish_run(plants[0].time_s)
            extras["obs"] = obs.summary()
        return rack_results, extras

    def _run_scalar(
        self, flat, n_steps, trackers, injector, run_span, labels
    ) -> tuple[list, tuple[float, ...]]:
        n = flat.n_servers
        obs = self._obs
        steppers = [
            ServerStepper(
                slot.plant,
                slot.sensor,
                slot.workload,
                slot.controller,
                n_steps=n_steps,
                dt_s=self._dt,
                record_decimation=self._decimation,
                tracker=tracker,
                injector=injector,
                server_index=index,
                obs=obs,
                # All steppers share one per-step due instant; only the
                # last commits the monitor sample, so rack-scope checks
                # and the cadence advance run once per step - the same
                # append order the batch lane produces.
                monitor_commit=(index == n - 1),
            )
            for index, (slot, tracker) in enumerate(zip(flat, trackers))
        ]
        start_s = flat.slots[0].plant.time_s
        inlet_sums = np.zeros(n)
        with run_span:
            for k in range(n_steps):
                # Exhaust produced up to step k sets the inlets for
                # step k+1.
                if obs is not None:
                    t0 = time.perf_counter()
                if injector is not None:
                    # Same instant the batch lane polls: the step time
                    # the offsets computed below will be in force for.
                    injector.poll_crac(start_s + (k + 1) * self._dt)
                flat.update_inlets()
                if obs is not None:
                    obs.phase("coupling", t0, time.perf_counter())
                for stepper in steppers:
                    stepper.step()
                inlet_sums += flat.inlet_temperatures_c()
        results = [
            stepper.finish(label=label)
            for stepper, label in zip(steppers, labels)
        ]
        return results, tuple(float(s) for s in inlet_sums / n_steps)


class FleetSimulator(LockstepDriver):
    """Step all servers of a rack in lockstep with inlet coupling.

    Parameters
    ----------
    rack:
        The coupled server slots.
    dt_s:
        Shared integration step for every server.
    record_decimation:
        Telemetry decimation, applied uniformly so per-server traces
        stay aligned for fleet metrics.
    violation_tolerance, degradation_window:
        Per-server :class:`~repro.workload.performance.DeadlineTracker`
        parameters (same meaning as in
        :class:`~repro.sim.engine.Simulator`).
    backend:
        ``"auto"`` (vectorized when the rack supports it), ``"scalar"``,
        ``"vectorized"``, or its alias ``"fused"`` (the batch lane falls
        back to scalar - recorded in the result's ``extras`` - when the
        rack cannot batch).
    faults:
        Optional :class:`~repro.faults.events.FaultSchedule` applied to
        the run on either backend (bit-for-bit identically); the run's
        fault summary lands in ``result.extras["faults"]``.
    obs:
        Optional :class:`~repro.obs.ObsCollector` or
        :class:`~repro.obs.ObsConfig`; profiles the run on either
        backend and attaches the summary as ``result.extras["obs"]``
        without perturbing the simulation (see :mod:`repro.obs`).
    """

    def __init__(
        self,
        rack: Rack,
        dt_s: float = 0.1,
        record_decimation: int = 1,
        violation_tolerance: float = 0.01,
        degradation_window: int = 10,
        backend: str = "auto",
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
        self._rack = rack

    @property
    def rack(self) -> Rack:
        """The rack being simulated."""
        return self._rack

    def run(self, duration_s: float, label: str = "fleet") -> FleetResult:
        """Simulate the whole rack for ``duration_s`` seconds."""
        rack = self._rack
        (result,), extras = self.run_lockstep(
            rack, [rack], [label], duration_s, label
        )
        return replace(result, extras={**result.extras, **extras})
