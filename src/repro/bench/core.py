"""Benchmark harness: registry, measurement, JSON results, and comparison.

Results are machine-readable (``repro-bench-v1`` schema)::

    {
      "schema": "repro-bench-v1",
      "host": {"platform": ..., "python": ..., "numpy": ...},
      "calibration": {"unit_time": <s>},         # fixed numpy workload
      "benchmarks": {
        "<name>": {
          "wall_time": <s>,                      # best of `repeats`
          "wall_times": [<s>, ...],
          "unit_times": [<s>, ...],              # calibration adjacent to each repeat
          "norm_wall": <units>,                  # median of wall_i / unit_i
          "sim_time": <simulated s> | null,
          "peak_rss_bytes": <int>,               # process high-water (monotonic)
          "sim_allocs": <int> | null,            # simulated allocation events
          "extra": {...}
        }, ...
      }
    }

Comparison against a committed baseline normalizes wall-clock by the
calibration ratio (the same pinned numpy workload timed in both runs), so a
faster or slower CI machine does not produce spurious verdicts.  The
calibration is interleaved with the repeats of *each* benchmark and the
gate uses the best per-repeat ``wall_i / unit_i`` ratio, so bursty noise
(a neighbour stealing the CPU for part of the run) inflates a repeat's
wall-clock and its adjacent calibration together and cancels out.  A
benchmark regresses when its normalized wall-clock exceeds the baseline by
more than ``threshold`` (default 20%).
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

#: registered benchmarks: name -> (fn, repeats, gate).  ``fn`` runs one pinned
#: workload and returns a dict; recognized keys: ``wall_time`` (self-timed
#: seconds, overriding the harness's outer timing), ``sim_time``,
#: ``sim_allocs``; everything else lands in ``extra``.
REGISTRY: Dict[str, tuple] = {}

RESERVED_KEYS = ("wall_time", "sim_time", "sim_allocs")


def bench(name: str, repeats: int = 3, gate: bool = True):
    """Register a pinned benchmark under ``name`` (e.g. ``micro/summa_ab``).

    ``gate=False`` records the benchmark but exempts its wall-clock from the
    ``--compare`` regression gate (for A/B-style benchmarks whose workload is
    already gated elsewhere and whose payload is in ``extra``).
    """

    def deco(fn: Callable[[], dict]):
        if name in REGISTRY:
            raise ValueError(f"duplicate benchmark {name!r}")
        REGISTRY[name] = (fn, repeats, gate)
        return fn

    return deco


@dataclass
class BenchResult:
    name: str
    wall_time: float
    wall_times: List[float]
    unit_times: List[float] = field(default_factory=list)
    norm_wall: Optional[float] = None  # median of wall_i / unit_i, machine units
    sim_time: Optional[float] = None
    peak_rss_bytes: int = 0
    sim_allocs: Optional[int] = None
    gated: bool = True
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "wall_time": self.wall_time,
            "wall_times": self.wall_times,
            "unit_times": self.unit_times,
            "norm_wall": self.norm_wall,
            "sim_time": self.sim_time,
            "peak_rss_bytes": self.peak_rss_bytes,
            "sim_allocs": self.sim_allocs,
            "gated": self.gated,
            "extra": self.extra,
        }


def peak_rss_bytes() -> int:
    """Process peak resident set size (monotonic high-water, bytes)."""
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return int(ru * 1024) if platform.system() != "Darwin" else int(ru)


def calibrate(reps: int = 9) -> float:
    """Time a pinned workload; the machine-speed unit for comparisons.

    The workload is deliberately interpreter-heavy with *small* numpy ops —
    the same profile as the simulator's hot paths (dict bookkeeping, shape
    tuples, 64×64 block GEMMs) — so contention that slows Python more than
    it slows large BLAS kernels moves the unit and the benchmarks together.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)).astype(np.float32)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        d: dict = {}
        acc = 0.0
        for i in range(200):
            x = a @ a
            d[i % 8] = x.shape
            acc += float(x[0, 0])
            tuple(x.shape)
        float(acc)
        best = min(best, time.perf_counter() - t0)
    return best


def run_benchmark(name: str, repeats: Optional[int] = None) -> BenchResult:
    fn, default_repeats, gate = REGISTRY[name]
    n = repeats if repeats is not None else default_repeats
    if n < 1:
        raise ValueError(f"--repeats must be >= 1 (got {n}): {name} needs a timed run")
    walls: List[float] = []
    units: List[float] = []
    out: dict = {}
    for _ in range(n):
        units.append(calibrate(reps=3))
        t0 = time.perf_counter()
        out = fn() or {}
        outer = time.perf_counter() - t0
        walls.append(float(out.get("wall_time", outer)))
    extra = {k: v for k, v in out.items() if k not in RESERVED_KEYS}
    return BenchResult(
        name=name,
        wall_time=min(walls),
        wall_times=walls,
        unit_times=units,
        norm_wall=statistics.median(w / u for w, u in zip(walls, units)),
        sim_time=out.get("sim_time"),
        peak_rss_bytes=peak_rss_bytes(),
        sim_allocs=out.get("sim_allocs"),
        gated=gate,
        extra=extra,
    )


def run_suite(
    only: Optional[List[str]] = None,
    repeats: Optional[int] = None,
    printer: Callable[[str], None] = print,
) -> dict:
    """Run (a subset of) the registered suite; returns the results document."""
    from repro.bench import suites  # noqa: F401  (registers the benchmarks)

    names = sorted(REGISTRY)
    if only:
        names = [n for n in names if any(pat in n for pat in only)]
        if not names:
            raise ValueError(f"no benchmark matches {only!r}")
    unit = calibrate()
    printer(f"calibration unit_time={unit * 1e3:.3f} ms")
    results = {}
    for name in names:
        r = run_benchmark(name, repeats)
        results[name] = r.to_json()
        sim = f" sim={r.sim_time:.4f}s" if r.sim_time is not None else ""
        allocs = f" allocs={r.sim_allocs}" if r.sim_allocs is not None else ""
        printer(f"{name:28s} wall={r.wall_time * 1e3:9.2f} ms{sim}{allocs}")
        for k, v in sorted(r.extra.items()):
            printer(f"{'':28s}   {k} = {v}")
    return {
        "schema": "repro-bench-v1",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "calibration": {"unit_time": unit},
        "benchmarks": results,
    }


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
@dataclass
class Comparison:
    name: str
    baseline_wall: float
    current_wall: float
    normalized_wall: float  # current wall in baseline machine-units
    ratio: float  # normalized / baseline; > 1 + threshold ⇒ regression
    regressed: bool


def compare(current: dict, baseline: dict, threshold: float = 0.20) -> List[Comparison]:
    """Compare two result documents; only benchmarks present in both count."""
    for doc, label in ((current, "current"), (baseline, "baseline")):
        if doc.get("schema") != "repro-bench-v1":
            raise ValueError(f"{label} results have unknown schema {doc.get('schema')!r}")
    unit_cur = float(current["calibration"]["unit_time"])
    unit_base = float(baseline["calibration"]["unit_time"])
    scale = unit_base / unit_cur if unit_cur else 1.0
    out = []
    for name, base in sorted(baseline["benchmarks"].items()):
        cur = current["benchmarks"].get(name)
        if cur is None:
            continue
        if not (base.get("gated", True) and cur.get("gated", True)):
            continue
        base_wall = float(base["wall_time"])
        cur_wall = float(cur["wall_time"])
        if base.get("norm_wall") and cur.get("norm_wall"):
            # per-benchmark interleaved calibration: robust to bursty noise
            ratio = float(cur["norm_wall"]) / float(base["norm_wall"])
            norm = ratio * base_wall
        else:
            norm = cur_wall * scale
            ratio = norm / base_wall if base_wall else float("inf")
        out.append(
            Comparison(
                name=name,
                baseline_wall=base_wall,
                current_wall=cur_wall,
                normalized_wall=norm,
                ratio=ratio,
                regressed=ratio > 1.0 + threshold,
            )
        )
    return out


def render_comparison(rows: List[Comparison], threshold: float) -> str:
    lines = [
        f"{'benchmark':28s} {'baseline':>12s} {'current*':>12s} {'ratio':>7s}  verdict",
        "-" * 72,
    ]
    for c in rows:
        verdict = "REGRESSED" if c.regressed else "ok"
        lines.append(
            f"{c.name:28s} {c.baseline_wall * 1e3:10.2f}ms "
            f"{c.normalized_wall * 1e3:10.2f}ms {c.ratio:6.2f}x  {verdict}"
        )
    lines.append(f"(* calibration-normalized; regression threshold {threshold:.0%})")
    return "\n".join(lines)


def load_results(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def save_results(doc: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
