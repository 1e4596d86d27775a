"""Critical-path analyzer: conservation, determinism, zero-drift, export.

The analyzer's contract is unusual for a profiler: attribution must sum to
the step wall-clock *exactly* (integer nanoseconds, not a tolerance), the
whole document must be byte-stable across identical seeded runs, and the
tracer feeding it must not move a single clock, byte or loss value.
"""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_config
from repro.core.model import OptimusModel
from repro.mesh.mesh import Mesh
from repro.nn.init import init_transformer_params
from repro.obs.critpath import (
    CATEGORIES,
    attribute_window,
    attribution_summary,
    build_windows,
    critpath_report,
)
from repro.obs.flamegraph import render_folded, validate_folded
from repro.obs.ledger import canonical_json
from repro.obs.profile import run_profile
from repro.runtime.events import Span, TraceEvent, Tracer, to_ns
from repro.runtime.simulator import Simulator


def _optimus_stem(trace: bool = True, q: int = 2, backend: str = "numpy"):
    cfg = tiny_config(num_layers=2)
    sim = Simulator.for_mesh(q=q, backend=backend, trace=trace)
    dtype = "float32" if backend == "shape" else "float64"
    params = init_transformer_params(cfg, backend=backend, dtype=dtype)
    model = OptimusModel(Mesh(sim, q), cfg, params, stem_only=True)
    model.stem_forward(4)
    model.stem_backward()
    return sim


def _megatron_stem(trace: bool = True, p: int = 2):
    from repro.megatron.model import MegatronModel

    cfg = tiny_config(num_layers=2)
    sim = Simulator.for_flat(p=p, backend="numpy", trace=trace)
    params = init_transformer_params(cfg, backend="numpy", dtype="float64")
    model = MegatronModel(sim, cfg, params, stem_only=True)
    model.stem_forward(4)
    model.stem_backward()
    return sim


def _hybrid_iteration(trace: bool = True, num_replicas: int = 2, q: int = 2):
    from repro.hardware.specs import frontera_rtx
    from repro.hybrid.data_parallel import DataParallel
    from repro.training.data import random_batch

    cfg = tiny_config(num_layers=2)
    total = num_replicas * q * q
    sim = Simulator(
        frontera_rtx(-(-total // 4), 4), num_ranks=total,
        backend="numpy", trace=trace,
    )
    params = init_transformer_params(cfg, seed=0, backend="numpy", dtype="float64")
    dp = DataParallel(sim, cfg, params, num_replicas, q)
    ids, labels = random_batch(cfg, num_replicas * 2, seed=1)
    dp.forward_backward(ids, labels)
    return sim


def _pipeline_run(trace: bool = True):
    """One 1F1B iteration over four stages: p2p hops between ranks."""
    from repro.pipeline.engine import PipelineModel

    cfg = tiny_config(num_layers=4)
    params = init_transformer_params(cfg, seed=1)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
    labels = rng.integers(0, cfg.vocab_size, size=(8, cfg.seq_len))
    sim = Simulator.for_flat(p=4, backend="numpy", trace=trace)
    PipelineModel(sim, cfg, params, num_micro_batches=4, schedule="1f1b").forward_backward(
        ids, labels
    )
    return sim


def _assert_conserved(sim):
    doc = critpath_report(sim)
    assert doc["windows"], "analyzer produced no windows"
    for w in doc["windows"]:
        assert w["conservation_ok"]
        for att in w["per_rank"]:
            assert att["total_ns"] == w["wall_ns"]
            assert sum(att[c + "_ns"] for c in CATEGORIES) == att["total_ns"]
        # the critical path itself also partitions the window exactly
        assert w["critical_path"]["total_ns"] == w["wall_ns"]
    return doc


class TestConservation:
    """Attributed time telescopes to the wall-clock, in exact integers."""

    def test_optimus_stem(self):
        _assert_conserved(_optimus_stem())

    def test_megatron_stem(self):
        _assert_conserved(_megatron_stem())

    def test_hybrid_iteration(self):
        _assert_conserved(_hybrid_iteration())

    def test_summary_flags_conservation(self):
        summary = attribution_summary(_optimus_stem())
        assert summary["conservation_ok"]
        assert summary["schema"] == "repro-critpath-v1"
        assert summary["per_rank_sum"]["total_ns"] == (
            summary["wall_clock_ns"] * 4
        )

    def test_untraced_run_raises(self):
        with pytest.raises(ValueError, match="trace"):
            critpath_report(_optimus_stem(trace=False))


class TestDeterminism:
    """Two identical seeded runs serialize to identical bytes."""

    def test_report_is_byte_stable(self):
        a = canonical_json(critpath_report(_optimus_stem()))
        b = canonical_json(critpath_report(_optimus_stem()))
        assert a == b

    def test_windows_dag_is_deterministic(self):
        wa = build_windows(_optimus_stem())
        wb = build_windows(_optimus_stem())
        assert len(wa) == len(wb)
        for x, y in zip(wa, wb):
            assert (x.label, x.start_ns, x.end_ns) == (y.label, y.start_ns, y.end_ns)
            assert list(x.timelines) == list(y.timelines)
            for r in x.timelines:
                assert x.timelines[r] == y.timelines[r]

    def test_folded_is_byte_stable(self):
        assert render_folded(_optimus_stem()) == render_folded(_optimus_stem())


class TestZeroDrift:
    """Tracing on vs off changes no clock, byte counter or result."""

    def test_clocks_and_counters_identical(self):
        on, off = _optimus_stem(trace=True), _optimus_stem(trace=False)
        assert on.elapsed() == off.elapsed()
        for a, b in zip(on.devices, off.devices):
            assert a.compute_time == b.compute_time
            assert a.comm_time == b.comm_time
            assert a.bytes_comm == b.bytes_comm
        assert on.peak_memory() == off.peak_memory()

    def test_analysis_does_not_mutate_the_sim(self):
        sim = _optimus_stem()
        before = (sim.elapsed(), len(sim.tracer.events), len(sim.tracer.spans),
                  tuple(d.comm_time for d in sim.devices))
        critpath_report(sim)
        attribution_summary(sim)
        render_folded(sim)
        after = (sim.elapsed(), len(sim.tracer.events), len(sim.tracer.spans),
                 tuple(d.comm_time for d in sim.devices))
        assert before == after


class TestCriticalPath:
    def test_path_is_contiguous_and_backward_justified(self):
        doc = critpath_report(_optimus_stem())
        for w in doc["windows"]:
            cp = w["critical_path"]
            path = cp["segments"]
            assert path, "empty critical path"
            assert not cp["path_truncated"]
            # oldest-first, non-overlapping in time
            for prev, cur in zip(path, path[1:]):
                assert prev["end_ns"] <= cur["start_ns"]
            assert path[-1]["end_ns"] <= w["end_ns"]

    def test_bottlenecks_ranked_with_predictions(self):
        doc = critpath_report(_optimus_stem(backend="shape"))
        rows = doc["windows"][0]["bottlenecks"]
        assert rows
        measured = [r["measured_ns"] for r in rows]
        assert measured == sorted(measured, reverse=True)
        comm = [r for r in rows if r["category"] == "comm"]
        assert comm, "stem has collectives; expected comm bottlenecks"
        for r in comm:
            assert r["predicted_ns"] > 0
            # single-node 2x2 mesh: the solo α–β model is the actual cost
            # model, so measured and predicted agree to ns rounding
            assert r["ratio"] == pytest.approx(1.0, rel=0.05)

    def test_by_kind_covers_collectives(self):
        doc = critpath_report(_optimus_stem())
        kinds = {k for w in doc["windows"] for k in w["by_kind"]}
        assert "broadcast" in kinds and "reduce" in kinds


class TestFoldedFlamegraph:
    def test_output_is_valid_folded_format(self):
        text = render_folded(_optimus_stem())
        assert text
        assert validate_folded(text) is None

    def test_self_times_sum_to_busy_time(self):
        sim = _optimus_stem()
        per_rank: dict = {}
        for line in render_folded(sim).splitlines():
            stack, _, value = line.rpartition(" ")
            rank = stack.split(";", 1)[0]
            per_rank[rank] = per_rank.get(rank, 0) + int(value)
        # flamegraph is busy-only: each rank's frames sum to its busy ns
        windows = build_windows(sim)
        busy: dict = {}
        for w in windows:
            for r, segs in w.timelines.items():
                busy[f"rank{r}"] = busy.get(f"rank{r}", 0) + sum(
                    s.duration_ns for s in segs if s.category != "stall"
                )
        assert per_rank == busy

    def test_validator_rejects_malformed_lines(self):
        assert validate_folded("a;b notanumber\n") is not None
        assert validate_folded("a;;b 10\n") is not None
        assert validate_folded("onlyframes\n") is not None


class TestCLI:
    def test_json_output_is_byte_stable(self):
        from repro.obs.critpath import main

        outputs = []
        for _ in range(2):
            lines: list = []
            assert main("tiny", as_json=True, printer=lines.append) == 0
            outputs.append("\n".join(lines))
        assert outputs[0] == outputs[1]
        doc = json.loads(outputs[0])
        assert doc["schema"] == "repro-critpath-v1"

    def test_writes_json_and_folded_artifacts(self, tmp_path):
        from repro.obs.critpath import main

        out, folded = tmp_path / "cp.json", tmp_path / "cp.folded"
        rc = main("tiny", out=str(out), folded=str(folded),
                  printer=lambda _m: None)
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["totals"]["per_rank_sum"]["total_ns"] > 0
        assert validate_folded(folded.read_text()) is None


class TestLedgerAttribution:
    def test_stem_record_carries_summary(self, tmp_path):
        from repro.experiments.runner import run_optimus_stem
        from repro.obs.ledger import RunLedger

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        run_optimus_stem(tiny_config(num_layers=2), 2, 2, ledger=led, trace=True)
        rec = led.read()[-1]
        assert rec.attribution is not None
        assert rec.attribution["conservation_ok"]
        assert rec.attribution["top_bottlenecks"]

    def test_untraced_record_has_no_summary(self, tmp_path):
        from repro.experiments.runner import run_optimus_stem
        from repro.obs.ledger import RunLedger

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        run_optimus_stem(tiny_config(num_layers=2), 2, 2, ledger=led)
        assert led.read()[-1].attribution is None


class TestLedgerCompact:
    def _fill(self, path) -> list:
        from repro.experiments.runner import run_optimus_stem
        from repro.obs.ledger import RunLedger

        led = RunLedger(str(path))
        cfg = tiny_config(num_layers=2)
        for batch in (2, 2, 4):  # identical batches dedupe to one key
            run_optimus_stem(cfg, 2, batch, ledger=led)
        run_optimus_stem(tiny_config(num_layers=3), 2, 2, ledger=led)
        return led.read()

    def test_keeps_latest_per_key_and_preserves_bytes(self, tmp_path):
        from repro.obs.ledger import compact

        path = tmp_path / "ledger.jsonl"
        before_records = self._fill(path)
        before_lines = path.read_text().splitlines()
        stats = compact(str(path))
        assert stats["read"] == 4
        # batch is not part of the key -> three same-config runs collapse
        assert stats["kept"] == 2 and stats["dropped"] == 2
        after_lines = path.read_text().splitlines()
        assert len(after_lines) == 2
        # surviving lines are byte-identical to their originals, in order
        positions = [before_lines.index(line) for line in after_lines]
        assert positions == sorted(positions)
        assert all(line in before_lines for line in after_lines)
        kept_ids = {json.loads(line)["run_id"] for line in after_lines}
        assert before_records[-1].run_id in kept_ids  # latest survives

    def test_round_trip_and_idempotence(self, tmp_path):
        from repro.obs.ledger import RunLedger, compact

        path = tmp_path / "ledger.jsonl"
        self._fill(path)
        compact(str(path))
        first = path.read_text()
        records = RunLedger(str(path)).read()  # still parses cleanly
        assert all(r.run_id for r in records)
        stats = compact(str(path))
        assert stats["dropped"] == 0
        assert path.read_text() == first

    def test_out_path_leaves_source_untouched(self, tmp_path):
        from repro.obs.ledger import compact

        src = tmp_path / "ledger.jsonl"
        self._fill(src)
        before = src.read_text()
        dst = tmp_path / "compacted.jsonl"
        compact(str(src), out=str(dst))
        assert src.read_text() == before
        assert len(dst.read_text().splitlines()) == 2


class TestCounterRestart:
    """OpenMetrics counter-restart semantics across a checkpoint resume."""

    def _trainer(self):
        from repro.training.data import BatchStream
        from repro.training.trainer import make_serial_trainer

        cfg = tiny_config(num_layers=2)
        return make_serial_trainer(cfg, BatchStream.copy_task(cfg, 4, seed=0),
                                   seed=1)

    def test_counters_survive_resume_monotonically(self, tmp_path):
        from repro.obs.openmetrics import render_registry, validate_openmetrics

        tr = self._trainer()
        tr.train_steps(3)
        steps = tr.metrics.counter("train/steps")
        assert steps.value == 3.0 and steps.created == 0
        path = str(tmp_path / "ck.npz")
        tr.save(path)

        # mid-campaign restart: the fresh process trains a little before
        # resuming, and the restored counter must never move backwards
        tr2 = self._trainer()
        tr2.train_steps(1)
        tr2.resume(path)
        restored = tr2.metrics.counter("train/steps")
        assert restored.value == 3.0  # max(live=1, saved=3)
        assert restored.created == 1  # reset epoch bumped
        text = render_registry(tr2.metrics)
        assert validate_openmetrics(text) == []
        assert "repro_train_steps_created 1" in text.splitlines()

    def test_second_resume_bumps_epoch_again(self, tmp_path):
        tr = self._trainer()
        tr.train_steps(2)
        p1 = str(tmp_path / "a.npz")
        tr.save(p1)
        tr2 = self._trainer()
        tr2.resume(p1)
        tr2.train_steps(2)
        p2 = str(tmp_path / "b.npz")
        tr2.save(p2)
        tr3 = self._trainer()
        tr3.resume(p2)
        c = tr3.metrics.counter("train/steps")
        assert c.value == 4.0
        assert c.created == 2

    def test_validator_accepts_created_and_rejects_other_suffixes(self):
        good = ("# TYPE x counter\nx_total 3\nx_created 1\n# EOF\n")
        bad = "# TYPE x counter\nx_sum 3\n# EOF\n"
        from repro.obs.openmetrics import validate_openmetrics

        assert validate_openmetrics(good) == []
        assert any("must end in" in p for p in validate_openmetrics(bad))


class TestDashIntegration:
    def test_attribution_rows_and_section_render(self, tmp_path):
        from repro.experiments.runner import run_optimus_stem
        from repro.obs.dash import _attribution_section, attribution_rows
        from repro.obs.ledger import RunLedger

        led = RunLedger(str(tmp_path / "ledger.jsonl"))
        run_optimus_stem(tiny_config(num_layers=2), 2, 2, ledger=led, trace=True)
        rows = attribution_rows(led.read())
        assert len(rows) == 1 and rows[0]["conservation_ok"]
        html_text = _attribution_section(rows)
        assert "Attribution" in html_text and "PASS" in html_text

    def test_sparkline_series_keyed_on_git_rev(self):
        from repro.obs.dash import _sparkline, sparkline_series
        from repro.obs.ledger import RunRecord

        def rec(git, clock):
            return RunRecord(kind="train", scheme="optimus", label="t",
                             clock=clock, git=git)

        series = sparkline_series([rec("aaa", 1.0), rec("aaa", 2.0),
                                   rec("bbb", 3.0)])
        # newest value per revision, in first-appearance order
        assert series["clock"] == [("aaa", 2.0), ("bbb", 3.0)]
        svg = _sparkline(series["clock"])
        assert svg.startswith("<svg") and "polyline" in svg


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: sha256 of ``canonical_json(critpath_report(sim))`` and of
#: ``render_folded(sim)`` per traced workload, recorded on the per-segment
#: analyzer that the columnar one replaced; any drift of a byte fails
GOLDEN_DIGESTS = {
    "tiny-optimus": (
        "2a5cf8d5365f6c9b69f2bd16a8473ca151280016b9c0da267bb5123de62b96dd",
        "e61077a0a3e35d46b316203b4295f9fcdb6a559a2390803045c0f0145269ad9a",
    ),
    "tiny-megatron": (
        "fdb3cbfc02053be33e02e6e1c66cb8b011902bff827dee42ef9335fcd27f14da",
        "243106fdc03764460a96352c8edf02b03db77f2291880cac78a5d82dfbca4662",
    ),
    # two step windows
    "train": (
        "23c371abb88d24b83cd1e905eaaadcc8bb8c5a81291e2635aa8c5d7d9462b7ec",
        "770358f844c2cfeed25925d3e99137c51a5acb1c4102509f01d2f28ea300c86a",
    ),
    # 37 step windows; the "request"-kind events are not attributed
    "serve": (
        "16b343a064826a87b68663ec9019337309ace8b1df0e2e44a3966c3beefa1890",
        "dfed4ae73ecebae805236e303a89bf62cf5e79cf8d113faf4a94408a842ba9e6",
    ),
    "hybrid": (
        "84eec67878f5b3d4726bf012fd803f8bc24b30dfeb2180009946f73de934cee9",
        "0d820aaec9f36ebdde05d24cbd15bce9a9e487fef5e61c2e6d211f708284c557",
    ),
    # p2p receives: clipped tails and the hop back to the sender
    "pipeline-1f1b": (
        "4d8f18aab577f77d3eb251bdad02aefd11954962598a093caff1a80a7b45625b",
        "d81ed31983f513936323d466a61d9037c44234e4089b07c0f9073f929898f973",
    ),
}

_GOLDEN_RUNS = {
    "tiny-optimus": lambda: run_profile("tiny", scheme="optimus"),
    "tiny-megatron": lambda: run_profile("tiny", scheme="megatron"),
    "train": lambda: run_profile("train"),
    "serve": lambda: run_profile("serve"),
    "hybrid": _hybrid_iteration,
    "pipeline-1f1b": _pipeline_run,
}


class TestGoldenBytes:
    """The analyzer's documents are pinned byte for byte."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_report_and_folded_digests(self, name):
        sim = _GOLDEN_RUNS[name]()
        report, folded = GOLDEN_DIGESTS[name]
        assert _sha256(canonical_json(critpath_report(sim))) == report
        assert _sha256(render_folded(sim)) == folded

    def test_pipeline_path_hops_to_the_sender(self):
        doc = critpath_report(_pipeline_run())
        (w,) = doc["windows"]
        segs = w["critical_path"]["segments"]
        assert any(s["kind"] == "p2p" for s in segs)
        assert len({s["rank"] for s in segs}) > 1


class TestCalibrateOnce:
    """``repro critpath --calibrate`` analyzes the traced run exactly once."""

    def test_one_analysis_pass(self, monkeypatch, tmp_path):
        from repro.obs import critpath
        from repro.obs.ledger import RunLedger

        passes = []
        real = critpath.build_windows

        def counting(sim):
            passes.append(sim)
            return real(sim)

        monkeypatch.setattr(critpath, "build_windows", counting)
        ledger = str(tmp_path / "ledger.jsonl")
        lines: list = []
        assert critpath.main("tiny", as_json=True, calibrate=True, ledger=ledger,
                             printer=lines.append) == 0
        assert len(passes) == 1
        # the derived documents equal fresh analyses of the same run
        sim = passes[0]
        assert json.loads("\n".join(lines)) == json.loads(canonical_json(
            critpath.calibration_suggestion(sim, "tiny", "optimus")))
        (rec,) = RunLedger(ledger).read()
        assert rec.attribution == json.loads(canonical_json(attribution_summary(sim)))


# ----------------------------------------------------------------------
# the tiling on synthetic traces, against brute-force oracles
# ----------------------------------------------------------------------
_SYNTH_KINDS = ("compute", "broadcast", "all_reduce", "p2p", "checkpoint", "request")
_ATTRIBUTED = {"compute": "compute", "broadcast": "comm", "all_reduce": "comm",
               "p2p": "comm", "checkpoint": "overhead"}


def _synthetic_sim(seed: int):
    """A random trace on whole-ns times: overlapping, shadowed, zero-length
    and inverted events; overlapping step windows whose edges cut events;
    same-category spans that nest, overlap or share identical extents."""
    rng = np.random.default_rng(seed)
    num_ranks = int(rng.integers(1, 5))
    horizon = int(rng.integers(5, 80))

    def t(ns) -> float:
        return int(ns) * 1e-9

    events = []
    for _ in range(int(rng.integers(0, 40))):
        kind = _SYNTH_KINDS[int(rng.integers(len(_SYNTH_KINDS)))]
        if kind == "p2p":
            if num_ranks < 2:
                continue
            ranks = tuple(int(r) for r in rng.choice(num_ranks, 2, replace=False))
        elif kind == "compute":
            ranks = (int(rng.integers(num_ranks)),)
        else:
            k = int(rng.integers(1, num_ranks + 1))
            ranks = tuple(sorted(int(r) for r in rng.choice(num_ranks, k, replace=False)))
        a = int(rng.integers(0, horizon))
        b = a + int(rng.integers(-3, 20))  # zero-length and inverted too
        events.append(TraceEvent(kind, ranks, t(a), t(b), nbytes=8.0, label="g"))

    spans = []
    sid = 0
    for category in ("layer", "op"):
        for r in range(num_ranks):
            for j in range(int(rng.integers(0, 8))):
                a = int(rng.integers(0, horizon))
                b = a + int(rng.integers(0, 30))
                copies = 2 if rng.random() < 0.3 else 1  # identical extents
                for c in range(copies):
                    sid += 1
                    attrs = {"index": j * 2 + c, "phase": "forward"} if category == "layer" else {}
                    spans.append(Span(f"{category}{j}.{c}", category, r, t(a), t(b),
                                      0, sid, None, attrs))
    for step in range(int(rng.integers(0, 3))):
        sid += 1
        for r in range(num_ranks):
            a = int(rng.integers(0, horizon))
            b = a + int(rng.integers(0, 40))
            spans.append(Span("step", "step", r, t(a), t(b), 0, sid, None, {"step": step}))
    rng.shuffle(spans)  # recording order must only break exact ties

    tracer = Tracer(enabled=True, events=events, spans=spans)
    return SimpleNamespace(tracer=tracer, num_ranks=num_ranks,
                           elapsed=lambda: t(horizon))


def _innermost(spans, category, rank, point, name_of):
    """Brute force: the containing span latest by (start, -end, recording)."""
    best, best_key = None, None
    for seq, s in enumerate(spans):
        if s.category != category or s.rank != rank:
            continue
        a, b = to_ns(s.t_start), to_ns(s.t_end)
        if a <= point <= b and (best_key is None or (a, -b, seq) > best_key):
            best, best_key = s, (a, -b, seq)
    return name_of(best) if best is not None else ""


def _union(intervals):
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


class TestTilingProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_windows_tile_conserve_and_label(self, seed):
        from repro.obs.critpath import _layer_name

        sim = _synthetic_sim(seed)
        events, spans = sim.tracer.events, sim.tracer.spans
        for w in build_windows(sim):
            per_rank = attribute_window(w)
            assert sorted(w.timelines) == list(range(sim.num_ranks))
            for r, segs in w.timelines.items():
                # contiguous, positive, covering the window exactly
                if w.wall_ns > 0:
                    assert segs[0].start_ns == w.start_ns
                    assert segs[-1].end_ns == w.end_ns
                else:
                    assert segs == []
                for prev, cur in zip(segs, segs[1:]):
                    assert prev.end_ns == cur.start_ns
                assert all(s.duration_ns > 0 for s in segs)
                assert sum(s.duration_ns for s in segs) == w.wall_ns
                att = per_rank[r]
                assert att.total_ns == w.wall_ns
                for c in CATEGORIES:
                    assert getattr(att, c + "_ns") == sum(
                        s.duration_ns for s in segs if s.category == c)
                # busy time covers exactly the union of the rank's atoms
                atoms = []
                for e in events:
                    a, b = max(to_ns(e.t_start), w.start_ns), min(to_ns(e.t_end), w.end_ns)
                    if e.kind in _ATTRIBUTED and r in e.occupied_ranks and b > a:
                        atoms.append((a, b))
                busy = [s for s in segs if s.category != "stall"]
                assert _union((s.start_ns, s.end_ns) for s in busy) == _union(atoms)
                for s in busy:
                    e = events[s.event_index]
                    assert r in e.occupied_ranks
                    assert (s.kind, s.category) == (e.kind, _ATTRIBUTED[e.kind])
                    assert to_ns(e.t_start) <= s.start_ns < s.end_ns <= to_ns(e.t_end)
                    mid = (s.start_ns + s.end_ns) // 2
                    assert s.layer == _innermost(spans, "layer", r, mid, _layer_name)
                    assert s.op == _innermost(spans, "op", r, mid, lambda x: x.name)

    def test_vectorized_ns_matches_to_ns(self):
        from repro.obs.critpath import _ns_array

        rng = np.random.default_rng(0)
        ts = list(rng.random(2000) * 10) + [k * 0.5e-9 for k in range(-50, 2000)]
        assert _ns_array(ts).tolist() == [to_ns(x) for x in ts]


def test_mean_over_categories_matches_numpy():
    """CATEGORIES covers the full attribution split (guards tuple edits)."""
    doc = critpath_report(_optimus_stem())
    att = doc["windows"][0]["per_rank"][0]
    parts = np.array([att[c + "_ns"] for c in CATEGORIES], dtype=np.int64)
    assert int(parts.sum()) == att["total_ns"]
