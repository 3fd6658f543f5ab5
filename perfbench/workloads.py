"""The benchmark's four workloads, driven through the public ``repro`` API.

Every workload is a *job*: the whole user-visible task of one run of a
study, from scenario build to result summary.  Each exists for one
reason (see ``BENCHMARK.json``):

``rack64_fused``
    One 64-server homogeneous rack on the noisy paper workload through
    the fused window kernel.  Plant, control and workload phases share
    the time; coupling is small.
``room256_cascade``
    The ``cascading_failures`` fault study on a 4x4-rack x 16-server room
    through the stacked vectorized lane: the only workload where sparse
    room coupling dominates and where the fault injector and watchdog
    failsafe do real work.
``campaign_small_racks``
    A two-worker ``CampaignRunner`` over all four fleet scenarios x six
    seeds of 8-server racks: many narrow stacked batches, where build,
    pool start and result pickling are a large share.
``table3_scalar``
    The paper's Table III, all five schemes through the scalar
    ``Simulator`` - the only workload on the scalar object model.

Horizons are long enough that every array run crosses the 4096-step
chunk boundary and sees many 30 s fan decisions.  The seed picks the
scenario seeds only; the shape of the work is fixed, so timings from
different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

import repro.fleet.campaign as campaign_mod
import repro.sim.scenarios as sim_scenarios
from repro import (
    SCHEME_NAMES,
    CampaignRunner,
    FleetSimulator,
    ObsConfig,
    RoomConfig,
    RoomSimulator,
    Simulator,
    build_fault_scenario,
    build_fleet_scenario,
    campaign_grid,
    merge_campaign_obs,
    merge_summaries,
    run_batch,
)
from repro.config import FleetConfig
from repro.fleet import FLEET_SCENARIOS
from repro.obs.diff import DECISION_CHANNELS
from repro.sim.scenarios import scheme_spec

from harness import CAL_REF_S, SpanLog, Timer, dedupe_worker_busy

#: The traced pass: phase accumulators on, in-program span ring off.
TRACED_OBS = ObsConfig(trace=False)

#: Integration step of every workload (the simulators' default).
DT_S = 0.1

#: Shortened output-check horizon: 4100 steps at dt 0.1, just past the
#: 4096-step chunk boundary.
CHECK_S = 410.0

#: Thermal channels and energies the fused kernel may drift on; the
#: bounds are the test bounds of docs/backends.md (tier B).
THERMAL_CHANNELS = ("junction", "heatsink")
FUSED_ABS_C = 1e-9
FUSED_ENERGY_REL = 1e-11

_SPAN_KEY = "perfbench_spans"


# ----------------------------------------------------------------------
# Simulated summary


def fingerprint(server_results) -> dict:
    """The simulated summary a timed run must reproduce bit for bit."""
    digest = hashlib.sha256()
    for result in server_results:
        for name in DECISION_CHANNELS:
            digest.update(np.ascontiguousarray(result.channels[name]).tobytes())
    return {
        "fan_energy_j": tuple(r.fan_energy_j for r in server_results),
        "cpu_energy_j": tuple(r.cpu_energy_j for r in server_results),
        "violation_percent": tuple(r.violation_percent for r in server_results),
        "max_junction_c": tuple(r.max_junction_c for r in server_results),
        "decisions_sha256": digest.hexdigest(),
    }


def non_finite(server_results) -> list[str]:
    """Output channels holding NaN or inf.

    ``tmeas`` is left out: a sensor dropout records NaN telemetry by
    design (the firmware sees no reading), which the watchdog acts on.
    """
    bad = []
    for result in server_results:
        for name, values in result.channels.items():
            if name != "tmeas" and not np.all(np.isfinite(values)):
                bad.append(f"{result.label}:{name}")
        for name in ("fan_energy_j", "cpu_energy_j"):
            if not math.isfinite(getattr(result, name)):
                bad.append(f"{result.label}:{name}")
    return bad


def compare_servers(reference, lane, tolerant: bool = False) -> list[str]:
    """Where ``lane`` departs from the ``reference`` lane's server runs.

    Exact on every channel and summary unless ``tolerant``, which
    admits the fused kernel's documented thermal drift (absolute on
    junction/heatsink, relative on energies) and nothing else.
    """
    if len(reference) != len(lane):
        return [f"{len(lane)} servers against {len(reference)}"]
    out = []
    for ref, got in zip(reference, lane):
        for name, want in ref.channels.items():
            have = got.channels.get(name)
            if have is None or have.shape != want.shape:
                out.append(f"{ref.label}:{name} shape")
            elif tolerant and name in THERMAL_CHANNELS:
                if not np.allclose(have, want, rtol=0.0, atol=FUSED_ABS_C):
                    out.append(f"{ref.label}:{name}")
            elif not np.array_equal(have, want, equal_nan=True):
                out.append(f"{ref.label}:{name}")
        for name in ("fan_energy_j", "cpu_energy_j"):
            a, b = getattr(ref, name), getattr(got, name)
            limit = FUSED_ENERGY_REL * abs(a) if tolerant else 0.0
            if abs(a - b) > limit:
                out.append(f"{ref.label}:{name}")
        if ref.violation_percent != got.violation_percent:
            out.append(f"{ref.label}:violation_percent")
    return out


def _compare_inlets(reference, lane, tolerant: bool = False) -> list[str]:
    atol = FUSED_ABS_C if tolerant else 0.0
    if np.allclose(lane.mean_inlet_c, reference.mean_inlet_c, rtol=0.0, atol=atol):
        return []
    return [f"{reference.label}:mean_inlet_c"]


# ----------------------------------------------------------------------
# Job bookkeeping


@dataclass
class Job:
    """One timed execution of a workload's whole job."""

    results: list
    server_results: list
    server_steps: int
    wall_s: float
    #: Seconds per layer: scenarios.build_s, sim.run_s, result.summary_s
    #: (summed over the job's runs).
    layers: dict
    workers: int = 1
    stacked_runs: int = 0
    obs: dict = field(default_factory=dict)
    #: Calibration kernel time around the job (see harness.calibrate).
    cal_s: float = CAL_REF_S

    @property
    def ref_wall_s(self) -> float:
        """``wall_s`` in reference-host seconds."""
        return self.wall_s * CAL_REF_S / self.cal_s

    def result_mb(self) -> float:
        """Pickled size of the job's results (computed, not measured)."""
        return sum(len(pickle.dumps(r)) for r in self.results) / 1e6


def _record(log, run_id, parent, names, timer) -> None:
    if log is None:
        return
    for name, start, end in zip(names, timer.marks, timer.marks[1:]):
        log.add(name, start, end, parent=parent, run=run_id)


_UNIT_SPANS = ("scenarios.build", "sim.construct", "sim.run", "result.summary")


def _unit(build, construct, duration_s, label, log, run_id, parent):
    """build -> construct -> run -> summary, one timestamp per boundary."""
    timer = Timer()
    subject = build()
    timer.lap()
    sim = construct(subject)
    timer.lap()
    result = sim.run(duration_s, label=label)
    timer.lap()
    result.summary()
    timer.lap()
    _record(log, run_id, parent, _UNIT_SPANS, timer)
    m = timer.marks
    return result, {
        "scenarios.build_s": m[1] - m[0],
        "sim.run_s": m[3] - m[2],
        "result.summary_s": m[4] - m[3],
    }


def _add_layers(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


def fallbacks(fleet_results) -> int:
    """Servers that silently dropped to scalar control in the batch lane."""
    return sum(len(r.extras.get("controller_fallbacks", {})) for r in fleet_results)


# ----------------------------------------------------------------------
# Setup probes


_DEFAULT_GAIN_SCHEDULE = sim_scenarios.default_gain_schedule


class TuningTimer:
    """Times cold gain-schedule tuning inside a real scenario build.

    Wraps the scenario module's ``default_gain_schedule`` and counts the
    wall time of calls that missed its cache.  Only setup probes install
    it; timed runs call the program unwrapped.
    """

    def __init__(self) -> None:
        self.cold_s = 0.0
        inner = _DEFAULT_GAIN_SCHEDULE

        def timed(*args, **kwargs):
            misses = inner.cache_info().misses
            t0 = time.perf_counter()
            out = inner(*args, **kwargs)
            if inner.cache_info().misses > misses:
                self.cold_s += time.perf_counter() - t0
            return out

        sim_scenarios.default_gain_schedule = timed


def _campaign_rack(task):
    """The rack a campaign worker builds for ``task`` (public API only)."""
    return build_fleet_scenario(
        task.scenario,
        n_servers=task.n_servers,
        duration_s=task.duration_s,
        seed=task.seed,
        fleet=FleetConfig(
            n_servers=task.n_servers, recirc_fraction=task.recirc_fraction
        ),
        scheme=task.scheme,
    )


def _probe_worker_build(task) -> float:
    """Pool-side set-up of one campaign task; returns cold tuning s."""
    timer = TuningTimer()
    FleetSimulator(_campaign_rack(task), dt_s=task.dt_s, backend=task.backend)
    return timer.cold_s


# ----------------------------------------------------------------------
# Traced campaign: spans around the per-chunk calls inside pool workers

#: Spans a pool worker recorded during its current chunk: a per-process
#: buffer filled by the wrappers below, which pool workers reach only
#: through the campaign module's globals.
_WORKER_SPANS: list = []
_RUN_CHUNK = campaign_mod.run_campaign_chunk
_BUILD = campaign_mod.build_fleet_scenario


def _traced_build(*args, **kwargs):
    t0 = time.perf_counter()
    rack = _BUILD(*args, **kwargs)
    _WORKER_SPANS.append(("scenarios.build", t0, time.perf_counter()))
    return rack


def _traced_chunk(tasks, queue=None, indices=None):
    _WORKER_SPANS.clear()
    t0 = time.perf_counter()
    results = _RUN_CHUNK(tasks, queue=queue, indices=indices)
    spans = [("campaign.chunk", t0, time.perf_counter())] + _WORKER_SPANS
    first = results[0]
    results[0] = replace(
        first, extras={**first.extras, _SPAN_KEY: (os.getpid(), spans)}
    )
    return results


@contextmanager
def _campaign_spans():
    campaign_mod.run_campaign_chunk = _traced_chunk
    campaign_mod.build_fleet_scenario = _traced_build
    try:
        yield
    finally:
        campaign_mod.run_campaign_chunk = _RUN_CHUNK
        campaign_mod.build_fleet_scenario = _BUILD


# ----------------------------------------------------------------------
# Workloads


class Workload:
    """Base: subclasses define the job, its setup probe and output check."""

    name = ""
    runs_per_job = 1
    workers = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def job(self, obs=None, log: SpanLog | None = None, run_id: str = "") -> Job:
        raise NotImplementedError

    def probe(self) -> dict:
        """Cold set-up in a fresh interpreter: tuning_s and ready_s."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Shortened-horizon comparison against the reference lane."""
        raise NotImplementedError

    def n_fired(self, job: Job) -> int:
        return 0

    def controller_fallbacks(self, job: Job) -> int:
        return fallbacks(job.results)


class _SingleSubject(Workload):
    """A job that is one build -> construct -> run -> summary."""

    duration_s = 0.0
    decimation = 10
    backend = "auto"
    tolerant_check = False

    def build(self, duration_s: float):
        raise NotImplementedError

    def construct(self, subject, backend: str, decimation: int, obs=None):
        raise NotImplementedError

    def n_servers(self) -> int:
        raise NotImplementedError

    def job(self, obs=None, log=None, run_id=""):
        top = log.begin("job", run=run_id) if log is not None else None
        timer = Timer()
        result, layers = _unit(
            lambda: self.build(self.duration_s),
            lambda s: self.construct(s, self.backend, self.decimation, obs),
            self.duration_s, self.name, log, run_id, top,
        )
        wall = timer.lap()
        if log is not None:
            log.end(top)
        return Job(
            results=[result],
            server_results=list(result.server_results),
            server_steps=self.n_servers() * round(self.duration_s / DT_S),
            wall_s=wall,
            layers=layers,
            obs=merge_summaries([result.extras.get("obs", {})]),
        )

    def probe(self):
        timer = TuningTimer()
        t0 = time.perf_counter()
        self.construct(self.build(self.duration_s), self.backend, self.decimation)
        return {"tuning_s": timer.cold_s, "ready_s": time.perf_counter() - t0}

    def check(self):
        ref = self.construct(self.build(CHECK_S), "scalar", 1).run(CHECK_S)
        lane = self.construct(self.build(CHECK_S), self.backend, 1).run(CHECK_S)
        if lane.extras.get("backend") == "scalar":
            return ["timed lane fell back to scalar"]
        return self.compare(ref, lane)

    def compare(self, ref, lane) -> list[str]:
        return compare_servers(
            ref.server_results, lane.server_results, self.tolerant_check
        ) + _compare_inlets(ref, lane, self.tolerant_check)


class Rack64Fused(_SingleSubject):
    name = "rack64_fused"
    duration_s = 3600.0
    backend = "fused"
    tolerant_check = True

    def n_servers(self):
        return 64

    def build(self, duration_s):
        return build_fleet_scenario(
            "homogeneous", n_servers=64, duration_s=duration_s, seed=self.seed
        )

    def construct(self, rack, backend, decimation, obs=None):
        return FleetSimulator(
            rack, record_decimation=decimation, backend=backend, obs=obs
        )


class Room256Cascade(_SingleSubject):
    name = "room256_cascade"
    #: Fouling from 30 s, fan seize from 630 s, dropout from 930 s: the
    #: horizon spans all three onsets and the check horizon the first.
    duration_s = 1000.0
    onset_s = 30.0
    room = RoomConfig(n_rows=4, racks_per_row=4, servers_per_rack=16)

    def n_servers(self):
        return self.room.n_racks * self.room.servers_per_rack

    def build(self, duration_s):
        return build_fault_scenario(
            "cascading_failures",
            room=self.room,
            duration_s=duration_s,
            seed=self.seed,
            onset_s=self.onset_s,
        )

    def construct(self, subject, backend, decimation, obs=None):
        room, schedule = subject
        return RoomSimulator(
            room,
            record_decimation=decimation,
            backend=backend,
            faults=schedule,
            obs=obs,
        )

    def n_fired(self, job):
        return job.results[0].extras["faults"]["n_fired"]

    def controller_fallbacks(self, job):
        return fallbacks(job.results[0].rack_results)

    def compare(self, ref, lane):
        out = compare_servers(ref.server_results, lane.server_results)
        for a, b in zip(ref.rack_results, lane.rack_results):
            out += _compare_inlets(a, b)
        if ref.supply_c != lane.supply_c:
            out.append("supply_c")
        if ref.crac_energy_j != lane.crac_energy_j:
            out.append("crac_energy_j")
        if lane.extras["faults"]["n_fired"] < 1:
            out.append("no fault fired inside the check horizon")
        return out


class Table3Scalar(Workload):
    name = "table3_scalar"
    runs_per_job = len(SCHEME_NAMES)
    duration_s = 1800.0

    def _spec(self, scheme, duration_s, decimation=10):
        return scheme_spec(
            scheme, duration_s=duration_s, seed=self.seed,
            record_decimation=decimation,
        )

    @staticmethod
    def _simulator(spec, obs=None):
        return Simulator(
            spec.plant,
            spec.sensor,
            spec.workload,
            spec.controller,
            dt_s=spec.dt_s,
            record_decimation=spec.record_decimation,
            obs=obs,
        )

    def job(self, obs=None, log=None, run_id=""):
        top = log.begin("job", run=run_id) if log is not None else None
        timer = Timer()
        results, layers = [], {}
        for scheme in SCHEME_NAMES:
            result, part = _unit(
                lambda s=scheme: self._spec(s, self.duration_s),
                lambda spec: self._simulator(spec, obs),
                self.duration_s, scheme, log, run_id, top,
            )
            results.append(result)
            _add_layers(layers, part)
        wall = timer.lap()
        if log is not None:
            log.end(top)
        return Job(
            results=results,
            server_results=results,
            server_steps=len(results) * round(self.duration_s / DT_S),
            wall_s=wall,
            layers=layers,
            obs=merge_summaries(r.extras.get("obs", {}) for r in results),
        )

    def probe(self):
        timer = TuningTimer()
        t0 = time.perf_counter()
        self._simulator(self._spec(SCHEME_NAMES[0], self.duration_s))
        return {"tuning_s": timer.cold_s, "ready_s": time.perf_counter() - t0}

    def check(self):
        lane = [
            self._simulator(spec).run(spec.duration_s, label=spec.label)
            for spec in (self._spec(s, CHECK_S, 1) for s in SCHEME_NAMES)
        ]
        ref = run_batch([self._spec(s, CHECK_S, 1) for s in SCHEME_NAMES])
        return compare_servers(ref, lane)


class CampaignSmallRacks(Workload):
    name = "campaign_small_racks"
    workers = 2
    n_seeds = 6
    n_servers = 8
    duration_s = 420.0
    runs_per_job = len(FLEET_SCENARIOS) * n_seeds

    def tasks(self, duration_s, seeds, obs=None, **kwargs):
        return campaign_grid(
            tuple(FLEET_SCENARIOS), seeds=seeds, n_servers=self.n_servers,
            duration_s=duration_s, obs=obs, **kwargs,
        )

    @property
    def seeds(self):
        return [self.seed * self.n_seeds + i for i in range(self.n_seeds)]

    def job(self, obs=None, log=None, run_id=""):
        tasks = self.tasks(self.duration_s, self.seeds, obs=obs)
        traced = log is not None
        top = log.begin("job", run=run_id) if traced else None
        timer = Timer()
        with _campaign_spans() if traced else nullcontext():
            results = CampaignRunner(workers=self.workers).run(tasks)
        map_s = timer.lap()
        for result in results:
            result.summary()
        summary_s = timer.lap()
        if traced:
            log.end(top)
            m = timer.marks
            run_span = log.add("campaign.run", m[0], m[1], parent=top, run=run_id)
            log.add("result.summary", m[1], m[2], parent=top, run=run_id)
            results = [
                self._collect_spans(r, log, run_id, run_span) for r in results
            ]
        busy = dedupe_worker_busy(
            (r.extras["worker"], r.extras.get("chunk")) for r in results
        )
        layers = {"sim.run_s": busy, "result.summary_s": summary_s}
        if traced:
            # Builds run inside pool workers; only the traced run's
            # worker-side spans see them.
            layers["scenarios.build_s"] = log.total("scenarios.build")
        return Job(
            results=results,
            server_results=[s for r in results for s in r.server_results],
            server_steps=len(results) * self.n_servers * round(self.duration_s / DT_S),
            wall_s=map_s,
            layers=layers,
            workers=self.workers,
            stacked_runs=sum("chunk" in r.extras for r in results),
            obs=merge_campaign_obs(results),
        )

    @staticmethod
    def _collect_spans(result, log, run_id, parent):
        if _SPAN_KEY not in result.extras:
            return result
        extras = dict(result.extras)
        pid, spans = extras.pop(_SPAN_KEY)
        (name, start, end), rest = spans[0], spans[1:]
        chunk = log.add(name, start, end, parent=parent, run=run_id, pid=pid)
        for name, start, end in rest:
            log.add(name, start, end, parent=chunk, run=run_id, pid=pid)
        return replace(result, extras=extras)

    def probe(self):
        # The pool starts from this cold parent; its workers tune and
        # build exactly as a fresh campaign script's workers would.
        first = self.tasks(self.duration_s, self.seeds[:1])
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            tuning = sum(pool.map(_probe_worker_build, first))
        return {"tuning_s": tuning, "ready_s": time.perf_counter() - t0}

    def check(self):
        # One task per scenario, two per chunk: two stacked chunks, so
        # the check runs the stacked lane across a real two-worker pool.
        # Building the references here also fills this process's tuning
        # cache, so the timed pools fork from a warm parent.
        tasks = self.tasks(CHECK_S, self.seeds[:1], record_decimation=1)
        lane = CampaignRunner(workers=self.workers, chunk_size=2).run(tasks)
        out = [
            f"{r.label}: not stacked" for r in lane if "chunk" not in r.extras
        ]
        for task, got in zip(tasks, lane):
            ref = FleetSimulator(
                _campaign_rack(task),
                dt_s=task.dt_s,
                record_decimation=task.record_decimation,
                backend="scalar",
            ).run(task.duration_s, label=task.label)
            out += compare_servers(ref.server_results, got.server_results)
            out += _compare_inlets(ref, got)
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (Rack64Fused, Room256Cascade, CampaignSmallRacks, Table3Scalar)
}
