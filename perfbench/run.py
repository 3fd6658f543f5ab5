"""The repo benchmark: one workload, timed end to end, optionally traced.

    python3 perfbench/run.py --workload rack64_fused --seed 1 --seconds 10 --trace 0

Workloads, metrics, units and bounds are defined in ``BENCHMARK.json``
at the repository root.  One run:

1. checks the workload's lane against the scalar reference lane on a
   shortened horizon, which also warms the process (caches filled);
2. times whole jobs, untraced, for ``--seconds`` seconds (at least
   three); every job must reproduce the first one's simulated summary
   bit for bit;
3. with ``--trace 1``, runs one traced job (benchmark-side spans around
   each layer call plus the program's ``ObsConfig(trace=False)`` phase
   accumulators), checks its simulated summary against the reference,
   and writes the spans to ``.perfbench/`` when the benchmark ends;
4. takes the set-up samples, each in a fresh interpreter (``probe.py``).

The timed end-to-end metrics are in reference-host seconds: each job's
and each set-up sample's wall time is scaled by ``CAL_REF_S`` over the
time of a fixed calibration kernel run beside it (``harness.calibrate``),
which takes out the host's own speed swings.  The raw host-second
figures are the ``host.*`` per-layer metrics; the other per-layer
times are raw host seconds too.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``).  Everything above it is the
human-readable report.  Exits 2 without a result when the library
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from harness import (
    CAL_REF_S,
    ROOT,
    SpanLog,
    calibrate,
    fingerprint_mismatches,
    load_spec,
    median,
    quartile_spread,
)

HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"

#: Timed jobs per run at least, however long they take.
MIN_RUNS = 3
#: Fresh-interpreter set-up samples per run (median reported).
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60.0

#: Printed by name but kept out of BENCHMARK.json: their values are 0
#: by construction on some workload (no failures; no workload phase in
#: the scalar engine, no faults outside the room, no coupling on a
#: single server), which a metric the benchmark gates on must not be.
PRINTED_ONLY = {
    "failed_frac": "ratio",
    "phase.workload_s": "s",
    "phase.faults_s": "s",
    "phase.coupling_s": "s",
}

#: Raw host-second figures behind the calibrated end-to-end metrics,
#: listed as per-layer metrics (they carry the host's speed swings).
HOST_METRICS = ("host.server_steps_per_s", "host.setup_s", "host.calibration_s")

PHASES = ("workload", "faults", "coupling", "plant", "sensing", "control", "record")

MODEL_NOTE = (
    "model: simulated, unvalidated against hardware; the repo holds "
    "regression goldens, not measurements"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def meta(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "machine": platform.machine(),
    }


def probe_setup(workload: str, seed: int) -> dict:
    """One set-up sample in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` x the largest child's.

    Read before any probe starts, so the only children are pool workers
    (the check's and the timed jobs').  Forked workers share
    copy-on-write pages with the parent, so for the campaign this is an
    upper bound.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    kib = own + (workers * kids if workers > 1 else 0)
    return kib * 1024 / 1e6


def summary_line(fp: dict) -> str:
    n = len(fp["fan_energy_j"])
    return (
        f"fan_energy_j={sum(fp['fan_energy_j']):.6f} "
        f"cpu_energy_j={sum(fp['cpu_energy_j']):.6f} "
        f"violation_percent_mean={sum(fp['violation_percent']) / n:.6f} "
        f"max_junction_c={max(fp['max_junction_c']):.6f} "
        f"decisions_sha256={fp['decisions_sha256'][:16]} ({n} servers)"
    )


def setup_samples(probes, ref: bool = True) -> list[float]:
    """Set-up seconds per sample, in reference-host seconds if ``ref``."""
    return [
        (p["import_s"] + p["ready_s"]) * (CAL_REF_S / p["cal_s"] if ref else 1.0)
        for p in probes
    ]


def throughputs(jobs, ref: bool = True) -> list[float]:
    """Server-steps per second per job, per reference-host second if ``ref``."""
    return [j.server_steps / (j.ref_wall_s if ref else j.wall_s) for j in jobs]


def end_to_end(jobs, probes, rss_mb) -> dict:
    return {
        "server_steps_per_s": median(throughputs(jobs)),
        "setup_s": median(setup_samples(probes)),
        "peak_rss_mb": rss_mb,
        "host.server_steps_per_s": median(throughputs(jobs, ref=False)),
        "host.setup_s": median(setup_samples(probes, ref=False)),
        "host.calibration_s": median([j.cal_s for j in jobs]),
    }


def per_layer(wl, ref, jobs, traced, probes) -> dict:
    def med(key):
        return median([j.layers[key] for j in jobs])

    run_s = med("sim.run_s")
    traced_run_s = traced.layers["sim.run_s"]
    phases = {
        name: slot["total_s"] for name, slot in traced.obs["phases"].items()
    }
    counters = traced.obs["counters"]
    out = {
        "import_s": median([p["import_s"] for p in probes]),
        "core.tuning_s": median([p["tuning_s"] for p in probes]),
        "scenarios.build_s": (
            med("scenarios.build_s")
            if "scenarios.build_s" in jobs[0].layers
            else traced.layers["scenarios.build_s"]
        ),
        "sim.run_s": run_s,
        "sim.run_server_steps_per_s": median(
            [j.server_steps / j.layers["sim.run_s"] for j in jobs]
        ),
        "result.summary_s": med("result.summary_s"),
        "phase.unattributed_s": traced_run_s - sum(phases.values()),
        "sim.server_steps": counters.get("server_steps", 0),
        "sim.control_steps": counters.get("control_steps", 0),
        "sim.controller_fallbacks": wl.controller_fallbacks(ref),
        "faults.n_fired": wl.n_fired(ref),
        # Every job is a map of runs over `workers` processes: the pool
        # for the campaign, a serial in-process loop elsewhere.
        "campaign.map_s": median([j.wall_s for j in jobs]),
        "campaign.worker_busy_s": run_s,
        "campaign.pool_overhead_s": median(
            [j.wall_s - j.layers["sim.run_s"] / j.workers for j in jobs]
        ),
        "campaign.worker_util": median(
            [j.layers["sim.run_s"] / (j.wall_s * j.workers) for j in jobs]
        ),
        "campaign.stacked_frac": ref.stacked_runs / wl.runs_per_job,
        "campaign.result_mb": ref.result_mb(),
        # Both sides in reference-host seconds: the host's swings dwarf
        # the tracing overhead.
        "obs.overhead_ratio": (traced_run_s / traced.cal_s)
        / median([j.layers["sim.run_s"] / j.cal_s for j in jobs]),
    }
    for name in PHASES:
        out[f"phase.{name}_s"] = phases.get(name, 0.0)
    return out


def report(title, names, values, units, spreads=None) -> None:
    print(title)
    for name in names:
        extra = ""
        if spreads and name in spreads:
            extra = f"  (iqr/median {spreads[name]:.3f})"
        print(f"  {name:28s} {values[name]:.6g} {units[name]}{extra}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}", file=sys.stderr)
        return 2

    print("meta: " + json.dumps(meta(args.workload, args.seed)))
    print(MODEL_NOTE)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    # The check runs the workload's own lane first, so it also warms the
    # process: caches fill and lazy set-up finishes before any timed job.
    check = wl.check()
    reset_peak_rss()

    ref = ref_fp = None
    jobs, problems, attempted, failed, n_timed = [], [], 0, 0, 0
    t_start = time.perf_counter()
    while n_timed < MIN_RUNS or time.perf_counter() - t_start < args.seconds:
        n_timed += 1
        attempted += wl.runs_per_job
        try:
            cal_before = calibrate()
            job = wl.job()
            job.cal_s = (cal_before + calibrate()) / 2
        except Exception:
            traceback.print_exc()
            failed += wl.runs_per_job
            continue
        fp = workloads.fingerprint(job.server_results)
        bad = workloads.non_finite(job.server_results)
        if ref is None:
            ref, ref_fp = job, fp
        else:
            bad += fingerprint_mismatches(ref_fp, fp)
            # Keep timings only: held results would grow the heap (and
            # the peak RSS) with every timed job.
            job.results = job.server_results = []
        if bad:
            problems += [f"timed run {n_timed}: {b}" for b in bad]
            failed += wl.runs_per_job
        jobs.append(job)
    measured_s = time.perf_counter() - t_start
    if not jobs:
        print("perfbench: every timed job raised", file=sys.stderr)
        return 1
    rss_mb = peak_rss_mb(wl.workers)

    log = traced = None
    if args.trace:
        log = SpanLog()
        cal_before = calibrate()
        traced = wl.job(
            obs=workloads.TRACED_OBS,
            log=log,
            run_id=f"{args.workload}/seed{args.seed}/traced",
        )
        traced.cal_s = (cal_before + calibrate()) / 2
        bad = fingerprint_mismatches(
            ref_fp, workloads.fingerprint(traced.server_results)
        )
        problems += [f"traced run: {b}" for b in bad]
        steps = traced.obs["counters"].get("server_steps")
        if steps != traced.server_steps:
            problems.append(
                f"traced run counted {steps} server-steps, "
                f"expected {traced.server_steps}"
            )

    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    if check:
        failed = attempted

    print(
        f"runs: {len(jobs)} timed jobs in {measured_s:.2f} s, {attempted} "
        f"simulation runs attempted, {failed} failed"
    )
    print(f"simulated: {summary_line(ref_fp)}")
    print(
        "simulated summary identical in every timed run"
        + (" and the traced run" if args.trace else "")
        + (": yes" if not problems else ": NO")
    )
    for problem in problems:
        print(f"  problem: {problem}")
    print(
        f"check: {wl.name} lane against the scalar reference lane over "
        f"{workloads.CHECK_S:g} s: " + ("ok" if not check else "FAILED")
    )
    for item in check[:20]:
        print(f"  mismatch: {item}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(PRINTED_ONLY)
    e2e = end_to_end(jobs, probes, rss_mb)
    e2e["failed_frac"] = failed / attempted
    spreads = {
        "server_steps_per_s": quartile_spread(throughputs(jobs)),
        "setup_s": quartile_spread(setup_samples(probes)),
        "host.server_steps_per_s": quartile_spread(throughputs(jobs, ref=False)),
    }
    e2e_names = [m["name"] for m in spec["end_to_end"]] + list(HOST_METRICS)
    e2e_names.append("failed_frac")
    report("end_to_end:", e2e_names, e2e, units, spreads)
    print(
        "setup_s split (medians of cold samples): "
        f"import {median([p['import_s'] for p in probes]):.4f} s, then "
        f"ready to step {median([p['ready_s'] for p in probes]):.4f} s, "
        f"of which tuning {median([p['tuning_s'] for p in probes]):.4f} s"
        + (" (summed over the pool's workers)" if wl.workers > 1 else "")
    )
    values = e2e
    if args.trace:
        values = {**e2e, **per_layer(wl, ref, jobs, traced, probes)}
        layer_names = [m["name"] for m in spec["per_layer"]]
        layer_names += [n for n in PRINTED_ONLY if n.startswith("phase.")]
        report("per_layer:", layer_names, values, units)
        print("span self time (s):")
        for name in dict.fromkeys(s.name for s in log.spans):
            ids = [s.id for s in log.spans if s.name == name]
            print(f"  {name:28s} {sum(log.self_time(i) for i in ids):.6f}")
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        log.write_jsonl(path)
        print(f"spans: {len(log.spans)} written to {path.relative_to(ROOT)}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        value = values[m["name"]]
        if not math.isfinite(value):
            print(f"perfbench: {m['name']} is not finite", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": not problems and not check and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
