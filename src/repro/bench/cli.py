"""``python -m repro bench`` — run the suite, persist results, gate CI."""

from __future__ import annotations

import time
from typing import List, Optional

from repro.bench.core import (
    compare,
    load_results,
    render_comparison,
    run_suite,
    save_results,
)


def main(
    out: Optional[str] = None,
    baseline: Optional[str] = None,
    only: Optional[List[str]] = None,
    repeats: Optional[int] = None,
    threshold: float = 0.20,
    ledger: Optional[str] = None,
    printer=print,
) -> int:
    if threshold < 0:
        raise ValueError(
            f"--threshold must be >= 0 (got {threshold}): a negative "
            "regression threshold flags every benchmark as REGRESSED"
        )
    doc = run_suite(only=only, repeats=repeats, printer=printer)
    if out:
        if out == "auto":
            out = f"BENCH_{time.strftime('%Y%m%d')}.json"
        save_results(doc, out)
        printer(f"results written to {out}")
    comparison = None
    if baseline:
        comparison = compare(doc, load_results(baseline), threshold=threshold)
    if ledger:
        run_id = append_bench_record(
            ledger, doc, comparison=comparison, threshold=threshold, only=only
        )
        printer(f"ledger record {run_id} appended to {ledger}")
    if comparison is not None:
        printer("")
        printer(render_comparison(comparison, threshold))
        regressed = [c.name for c in comparison if c.regressed]
        if regressed:
            printer(f"FAIL: {len(regressed)} benchmark(s) regressed: {', '.join(regressed)}")
            return 1
        printer("PASS: no benchmark regressed beyond threshold")
    return 0


def append_bench_record(
    ledger,
    doc: dict,
    comparison=None,
    threshold: float = 0.20,
    only: Optional[List[str]] = None,
) -> str:
    """Append one ``bench`` record (full results + regression verdicts)."""
    from dataclasses import asdict

    from repro.obs.ledger import RunLedger, RunRecord, json_safe

    if not hasattr(ledger, "append"):
        ledger = RunLedger(ledger)
    extra = {
        "results": doc,
        "only": list(only) if only else None,
        "threshold": threshold,
    }
    if comparison is not None:
        extra["comparison"] = [asdict(c) for c in comparison]
        extra["regressed"] = [c.name for c in comparison if c.regressed]
    record = RunRecord(kind="bench", label="bench-suite", extra=json_safe(extra))
    run_id = ledger.append(record)
    return run_id
