"""Host-cost benchmark of the repro simulator: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it).  ``--trace 0``
measures the end-to-end metrics named in ``BENCHMARK.json`` with tracing
off; ``--trace 1`` runs untraced and traced passes in pairs and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5  # fresh interpreters timed per run for setup_s
RULERS = 2  # rulers timed on each side of a timed interval
#: the ruler's time on the reference host that scaled times are quoted for
REF_RULER_S = 0.020


def _prepare_imports() -> None:
    """Import ``repro`` from this checkout's ``src/``, with default flags."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: {ROOT / 'src' / 'repro'} not found; run the "
                         "benchmark from a full checkout of the repository")
    # REPRO_* variables switch kernels, strict checks and ledger writes;
    # the benchmark measures the defaults
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))


def ruler() -> float:
    """Seconds for a fixed pure-Python loop that calls no ``repro`` code.

    Each vCPU of a shared host can flip between a fast and a slow state
    (about 14 and 23-30 ms for this loop on a 2-vCPU VM) that lasts from a
    fraction of a second to minutes, so host times of the same code drift
    by a factor of two within minutes.  Timing this loop in the same
    process around (and inside) each timed interval tracks that state,
    and scaling the interval by ``REF_RULER_S / ruler`` quotes it at one
    fixed reference speed.  A change to the program moves the interval but
    not the ruler.
    """
    t0 = time.perf_counter()
    d, acc = {}, 0
    for i in range(100_000):
        d[i & 63] = (i, i + 1)
        acc += len(d[i & 63])
    return time.perf_counter() - t0


def rulers() -> list:
    return [ruler() for _ in range(RULERS)]


def at_ref_speed(seconds: float, ruler_s: list) -> float:
    """``seconds`` scaled to the reference host speed by the rulers timed
    around and inside it; the median ignores a ruler hit by a hiccup."""
    return seconds * REF_RULER_S / statistics.median(ruler_s)


def _setup_probe(workload: str, seed: int) -> None:
    """Child mode: rulers, import and construct, rulers; then print the
    monotonic clock when ready and the rulers' times."""
    before = rulers()
    _prepare_imports()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed).construct()
    ready = time.monotonic()
    print("READY", *map(repr, [ready] + before + rulers()), flush=True)


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from spawning a fresh interpreter to ready-to-run, per probe,
    as (host seconds, seconds at the reference speed).  The probe's own
    rulers scale it: a child may run on the other vCPU than this process."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        fields = proc.stdout.split()[-(2 + 2 * RULERS):]
        if proc.returncode != 0 or len(fields) != 2 + 2 * RULERS or fields[0] != "READY":
            raise RuntimeError(f"setup probe failed ({proc.returncode}):\n{proc.stderr}")
        ready, *ruler_s = map(float, fields[1:])
        seconds = ready - t0 - sum(ruler_s[:RULERS])  # less the rulers before ready
        samples.append((seconds, at_ref_speed(seconds, ruler_s)))
    return samples


def another_fits(start: float, seconds: float, durations: list) -> bool:
    """True while one more pass of median length ends within ``seconds``
    (the first pass always runs, however long it takes)."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


class Runner:
    """Runs passes of one workload and tallies walls, work and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.state = wl.construct()
        self.attempted = 0
        self.failed = 0

    def one_pass(self, k: int, tracer=None, between=None):
        """Run pass ``k``; returns (start, end, output or None).  The
        workload calls ``between()`` at its split points inside the pass."""
        inputs = self.wl.inputs(k)
        gc.collect()
        self.attempted += 1
        label = f"pass{k}"
        t0 = tracer.begin_pass(label) if tracer else time.perf_counter()
        try:
            out = self.wl.run_pass(self.state, inputs, between or _no_split)
            error = None
        except Exception:  # a failed pass is counted, not fatal
            out, error = None, traceback.format_exc()
        finally:
            t1 = tracer.end_pass() if tracer else time.perf_counter()
        problems = [error] if error else self.wl.check(inputs, out)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {self.wl.name} {label}{' traced' if tracer else ''}: {p}",
                      file=sys.stderr)
        return t0, t1, (None if problems else out)


def _no_split() -> None:
    pass


class Splitter:
    """Rulers before a pass, after it and at each split point inside it.

    A pass of 1-2 s can span several host speed states, so rulers timed
    inside it as well sample its speed better than rulers around it alone.
    """

    def __init__(self):
        self.ruler_s = rulers()
        self.splits = []

    def between(self) -> None:
        self.splits.append(time.perf_counter())
        self.ruler_s += rulers()
        self.splits.append(time.perf_counter())

    def finish(self, t0: float, t1: float):
        """(host seconds, seconds at the reference speed) of the pass,
        the rulers at the split points left out."""
        self.ruler_s += rulers()
        edges = [t0, *self.splits, t1]
        seconds = sum(b - a for a, b in zip(edges[::2], edges[1::2]))
        return seconds, at_ref_speed(seconds, self.ruler_s)


def run_untraced(wl, seconds: float, seed: int) -> dict:
    setup = measure_setup(wl.name, seed)
    runner = Runner(wl)
    walls, scaled, spans = [], [], []
    units = seconds_done = 0.0
    start = time.perf_counter()
    k = 0
    while another_fits(start, seconds, spans):
        t = time.perf_counter()
        splitter = Splitter()
        t0, t1, out = runner.one_pass(k, between=splitter.between)
        wall, ref_wall = splitter.finish(t0, t1)
        spans.append(time.perf_counter() - t)
        walls.append(wall)
        scaled.append(ref_wall)
        if out is not None:
            units += wl.units(out)
            seconds_done += ref_wall
        k += 1
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    med = statistics.median
    metrics = {
        "setup_s": (med(ref for _, ref in setup), "s"),
        "wall_s": (med(scaled), "s"),
        "work_per_s": (units / seconds_done if seconds_done else 0.0, "units/s"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }
    print(f"workload {wl.name}  seed {seed}  passes {len(walls)}  "
          f"work unit: {wl.unit}  (times at the reference speed, "
          f"ruler {REF_RULER_S * 1e3:.0f} ms)")
    print(f"  setup_s      {metrics['setup_s'][0]:.4f} s        median of "
          f"{len(setup)} fresh interpreters {[round(r, 3) for _, r in setup]}; "
          f"host median {med(h for h, _ in setup):.4f} s")
    print(f"  wall_s       {metrics['wall_s'][0]:.4f} s        median of "
          f"{len(walls)} passes {[round(x, 3) for x in scaled]}; "
          f"host median {med(walls):.4f} s")
    print(f"  work_per_s   {metrics['work_per_s'][0]:.4f} {wl.unit}  {units:.0f} units "
          f"in {seconds_done:.3f} s of checked passes")
    print(f"  peak_rss_mb  {rss_mib:.1f} MiB")
    print(f"  failed_frac  {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.3f} ratio")
    print(f"  output checks: {'all passed' if runner.failed == 0 else 'FAILED'}")
    return {"ok": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def run_traced(wl, seconds: float, seed: int) -> dict:
    from tracing import STEP_TARGET, LayerTracer

    from repro.runtime.simulator import Simulator
    from repro.training.trainer import Trainer

    runner = Runner(wl)
    tracer = LayerTracer()
    ratios, extra, pairs = [], [], []
    start = time.perf_counter()
    k = 0
    while another_fits(start, seconds, pairs):
        spans_before = len(tracer.span_start)
        t0, t1, _ = runner.one_pass(k)
        base = t1 - t0
        if len(tracer.span_start) != spans_before:
            raise RuntimeError("an untraced pass recorded spans: a wrapper outlived disable()")
        if k == 0:
            # after one untraced pass every lazily imported module is bound
            tracer.install()
            tracer.begin_pass("setup")
            wl.construct()
            tracer.end_pass()
        else:
            tracer.enable()
        t0, t1, out = runner.one_pass(k, tracer)
        wall = t1 - t0
        tracer.disable()
        pairs.append(base + wall)
        ratios.append(wall / base)
        sims = [o for o in tracer.instances if isinstance(o, Simulator)]
        trainers = [o for o in tracer.instances if isinstance(o, Trainer)]
        pools = [getattr(s, "_array_pool", None) for s in sims]  # SUMMA's scratch pool
        hits = sum(p.hits for p in pools if p is not None)
        misses = sum(p.misses for p in pools if p is not None)
        extra.append({
            "comm.collectives.bytes": sum(s.total_bytes_comm() for s in sims),
            "core.summa.pool_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "committed_steps": sum(t.step for t in trainers),
            **(wl.counters(out) if out is not None else {}),
        })
        tracer.instances.clear()
        k += 1

    stats = tracer.pass_stats()
    setup, passes = stats[0], stats[1:]
    problems = [p for s in stats for p in s["problems"]]
    problems += tracer.call_checks(wl.name, stats)
    for p in problems:
        print(f"TRACE CHECK FAILED {wl.name}: {p}", file=sys.stderr)

    med = statistics.median
    metrics = {}
    for i, layer in enumerate(tracer.layers):
        metrics[f"{layer.name}.calls"] = (med(int(s["calls"][i]) for s in passes), "count")
        metrics[f"{layer.name}.self_s"] = (med(float(s["self_s"][i]) for s in passes), "s")
    names = {layer.name: i for i, layer in enumerate(tracer.layers)}
    metrics["nn.init.self_s"] = (float(setup["self_s"][names["nn.init"]]), "s")
    metrics["runtime.simulator.build_s"] = (
        float(setup["inclusive_s"][names["runtime.simulator"]]), "s")
    step_id = tracer.names.index(STEP_TARGET)
    steps = [int(s["target_calls"][step_id]) for s in passes]
    metrics["training.trainer.steps"] = (med(steps), "count")
    metrics["resilience.step_yield"] = (
        med(e["committed_steps"] / n if n else 0.0 for e, n in zip(extra, steps)), "ratio")
    for key, unit in (("comm.collectives.bytes", "bytes"),
                      ("core.summa.pool_hit_ratio", "ratio"),
                      ("serving.engine.steps", "count"),
                      ("serving.engine.lane_util", "ratio"),
                      ("resilience.retries", "count")):
        metrics[key] = (med(e.get(key, 0) for e in extra), unit)
    metrics["trace.overhead_ratio"] = (med(ratios), "ratio")
    metrics["trace.unattributed_s"] = (med(s["unattributed_s"] for s in passes), "s")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}.npz")
    print(f"workload {wl.name}  seed {seed}  traced passes {len(passes)}  "
          f"spans {len(tracer.span_start)}  (written to .perfbench_out/)")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(f"  conservation and call checks: {'passed' if not problems else 'FAILED'}")
    return {"ok": runner.failed == 0 and not problems, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _prepare_imports()
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT_DIR / "tmp")  # chaos checkpoints stay in the checkout

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    run = run_traced if args.trace else run_untraced
    result = run(wl, args.seconds, args.seed)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    metrics = {}
    for m in wanted:
        value, unit = result["metrics"][m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": result["ok"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
