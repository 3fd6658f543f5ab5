"""Simulation engine: discrete-time closed-loop server simulation.

* :class:`~repro.sim.engine.Simulator` - the time loop wiring workload,
  plant, sensing pipeline, and DTM controller together.
* :class:`~repro.sim.engine.ServerStepper` - the single-step loop
  primitive shared with the fleet simulator.
* :class:`~repro.sim.result.SimulationResult` - telemetry + metrics.
* :mod:`repro.sim.scenarios` - canned builders for every paper experiment
  (the five Table III schemes, the Fig. 3/4 fan-only setups, workloads).
* :class:`~repro.sim.sweep.ParameterSweep` - sweep harness (optionally
  parallel via :func:`~repro.sim.parallel.parallel_map`).
* :mod:`repro.sim.batch` - the vectorized batch backend
  (:class:`~repro.sim.batch.BatchStepper`,
  :func:`~repro.sim.batch.run_batch`): whole racks and sweep grids as
  array ops, one control window at a time, bit-for-bit with the scalar
  engine.
* :mod:`repro.sim.batch_control` - the vectorized controller backend
  (:class:`~repro.sim.batch_control.BatchGlobalController`): the common
  DTM composition advanced for all servers as array ops at CPU-period
  boundaries, with per-server scalar fallback for the rest.
"""

from repro.sim.batch import (
    BatchRunSpec,
    BatchStepper,
    batch_unsupported_reason,
    run_batch,
)
from repro.sim.batch_control import (
    BatchGlobalController,
    batch_controller_unsupported_reason,
)
from repro.sim.engine import ServerStepper, Simulator
from repro.sim.parallel import parallel_map
from repro.sim.result import SimulationResult
from repro.sim.scenarios import (
    SCHEME_NAMES,
    build_global_controller,
    build_plant,
    build_sensor,
    paper_workload,
    run_fan_only,
    run_scheme,
)
from repro.sim.sweep import ParameterSweep, SweepPoint

__all__ = [
    "BatchGlobalController",
    "BatchRunSpec",
    "BatchStepper",
    "ParameterSweep",
    "SCHEME_NAMES",
    "ServerStepper",
    "SimulationResult",
    "Simulator",
    "SweepPoint",
    "batch_controller_unsupported_reason",
    "batch_unsupported_reason",
    "build_global_controller",
    "build_plant",
    "build_sensor",
    "paper_workload",
    "parallel_map",
    "run_batch",
    "run_fan_only",
    "run_scheme",
]
