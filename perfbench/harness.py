"""Benchmark plumbing that does not touch the simulator.

Spans, self-time arithmetic, the per-chunk campaign accounting, the
simulated-summary comparison and the metric table read from
``BENCHMARK.json``.  Kept free of ``repro`` imports so the benchmark can
fail cleanly (and its self-tests run fast) without the library.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Metric table


def load_spec(path: Path = SPEC_PATH) -> dict:
    """The benchmark definition (workloads, metrics, units, bounds)."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spec_errors(spec: dict) -> list[str]:
    """Every way the workloads and metrics of ``spec`` break its rules."""
    errors = []
    seen: set[str] = set()

    def name_ok(name: str, where: str) -> None:
        if not isinstance(name, str) or not NAME_RE.match(name):
            errors.append(f"{where}: bad name {name!r}")
        elif name in seen:
            errors.append(f"{where}: name {name!r} used twice")
        seen.add(name)

    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("need 2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            errors.append(f"workload keys {sorted(w)}")
            continue
        name_ok(w["name"], "workload")
        if not w["why"] or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w['name']}: why must be one line <= 200")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        errors.append("need 1 to 16 end_to_end metrics")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            errors.append(f"end_to_end keys {sorted(m)}")
            continue
        name_ok(m["name"], "end_to_end")
        if not 0 < m["bound"] <= 0.25:
            errors.append(f"{m['name']}: bound {m['bound']} not in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errors.append("setup_s (unit s, better lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s must carry the largest bound")
    if not 1 <= len(spec["per_layer"]) <= 128:
        errors.append("need 1 to 128 per_layer metrics")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer keys {sorted(m)}")
            continue
        name_ok(m["name"], "per_layer")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT_RE.match(str(m.get("unit", ""))):
            errors.append(f"{m.get('name')}: bad unit {m.get('unit')!r}")
        if m.get("better") not in ("higher", "lower"):
            errors.append(f"{m.get('name')}: better must be higher/lower")
    return errors


# ----------------------------------------------------------------------
# Host speed

#: Seconds :func:`calibrate` takes on the reference host: a 2-vCPU
#: x86_64 Xeon VM (2.1 GHz nominal, Python 3.11, NumPy 2.4) in its fast
#: state.  Timings scaled by ``CAL_REF_S / calibrate()`` are in
#: reference-host seconds.
CAL_REF_S = 0.0136


def calibrate() -> float:
    """Wall time of a fixed kernel: the host's speed right now.

    The kernel mixes an interpreted loop with small-array NumPy calls,
    like the simulator's hot loops.  On a shared host whose speed swings
    by 1.7x over tens of seconds, scaling each timing by this kernel's
    time measured around it removes most of the swing (rack workload on
    the reference host: job-to-job IQR/median 0.50 raw, 0.075 scaled).
    """
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for k in range(300_000):
        total += k
    a = np.arange(1000.0)
    for _ in range(2000):
        a = a * 1.0000001 + 0.5
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Statistics


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


# ----------------------------------------------------------------------
# Spans


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    pid: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanLog:
    """In-memory span store, written out once when the benchmark ends.

    Spans come from the benchmark's own timers around calls into each
    layer's public functions; nothing inside the program is traced.
    ``start``/``end`` are ``time.perf_counter`` readings, which on Linux
    share one clock across processes, so pool workers' spans line up
    with the parent's.
    """

    spans: list[Span] = field(default_factory=list)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        run: str = "",
        pid: int | None = None,
    ) -> int:
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        span = Span(len(self.spans), name, start, end, parent, run, pid)
        self.spans.append(span)
        return span.id

    def begin(self, name: str, parent: int | None = None, run: str = "") -> int:
        """Open a span whose children are added before it ends."""
        now = time.perf_counter()
        return self.add(name, now, now, parent=parent, run=run)

    def end(self, span_id: int) -> None:
        self.spans[span_id].end = time.perf_counter()

    def children(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent == span_id]

    def self_time(self, span_id: int) -> float:
        """Duration minus the part of it covered by child spans.

        Children may overlap (parallel pool workers), so the covered part
        is the length of the union of the children's intervals, clipped
        to the parent's.
        """
        span = self.spans[span_id]
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children(span_id)
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return span.duration - covered

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                row = asdict(span)
                row["self"] = self.self_time(span.id)
                fh.write(json.dumps(row) + "\n")


class Timer:
    """Sequential timestamps around one layer call after another."""

    def __init__(self) -> None:
        self.marks = [time.perf_counter()]

    def lap(self) -> float:
        self.marks.append(time.perf_counter())
        return self.marks[-1] - self.marks[-2]


# ----------------------------------------------------------------------
# Campaign accounting


def dedupe_worker_busy(worker_records: Iterable[tuple[dict, dict | None]]) -> float:
    """Worker-busy seconds with each stacked chunk counted once.

    ``worker_records`` yields ``(extras["worker"], extras.get("chunk"))``
    per task.  Every task of a stacked chunk carries the chunk's wall
    time, so summing per task would count a chunk of four four times;
    a chunk is identified by the worker pid and its task labels.
    """
    seen: set = set()
    busy = 0.0
    for i, (worker, chunk) in enumerate(worker_records):
        key = (
            (worker["pid"], tuple(chunk["labels"]))
            if chunk is not None
            else ("task", i)
        )
        if key in seen:
            continue
        seen.add(key)
        busy += worker["task_wall_s"]
    return busy


# ----------------------------------------------------------------------
# Simulated-summary comparison


def fingerprint_mismatches(reference: dict, other: dict) -> list[str]:
    """Fields where ``other`` differs from ``reference``, bit for bit.

    A fingerprint maps field names to tuples of floats (per server) or a
    digest string; floats compare by their exact bits (``float.hex``),
    so ``-0.0``/``0.0`` and NaN payload changes also count.
    """
    out = []
    for key in sorted(set(reference) | set(other)):
        a, b = reference.get(key), other.get(key)
        if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
            same = len(a) == len(b) and all(
                float(x).hex() == float(y).hex() for x, y in zip(a, b)
            )
        else:
            same = a == b
        if not same:
            out.append(key)
    return out
