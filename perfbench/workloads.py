"""The benchmark's four workloads: inputs, one pass, and its output check.

Each workload runs in one process and one thread as a closed loop: the
next pass starts when the previous one ends.  ``construct`` makes what a
first pass needs (parameters, simulators, models, engines) and is what
``setup_s`` times in a fresh interpreter; ``inputs`` generates a pass's
inputs from the workload seed outside the timed region; ``run_pass`` is
the timed call into the program, and calls ``between()`` where it can be
split (the runner times its host-speed rulers there); ``check`` returns
the output problems.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List

from repro.config import table2_weak_scaling, tiny_config
from repro.nn.init import init_transformer_params
from repro.obs.ledger import canonical_json
from repro.runtime.simulator import Simulator

ROOT = Path(__file__).resolve().parents[1]

#: layers of the Table-2 p=64 Optimus stem that ``critpath_p64`` runs: a
#: pass records 25,152 events and takes about 1.5 s, so a run times many
#: passes; the full 24 layers take 20-35 s, one pass per run
CRITPATH_LAYERS = 2
#: sha256 of the canonical JSON of ``critpath_report`` on that stem,
#: recorded at the commit that added this benchmark
CRITPATH_P64_SHA256 = "f15427e58a96bbba285e7b35e138da53cd28557bd5c89b90337b93c244e48ff6"


def _p64():
    return next(s for s in table2_weak_scaling() if s["num_devices"] == 64)


def _optimus_stem(cfg, trace: bool):
    """The simulator and model ``run_optimus_stem(cfg, q=8, ...)`` builds."""
    from repro.core.model import OptimusModel
    from repro.mesh.mesh import Mesh

    sim = Simulator.for_mesh(q=8, gpus_per_node=4, arrangement_kind="bunched",
                             backend="shape", trace=trace)
    params = init_transformer_params(cfg, backend="shape", dtype="float32",
                                     include_embedding=False)
    return sim, OptimusModel(Mesh(sim, 8), cfg, params, checkpoint_activations=True,
                             stem_only=True)


def _sha256(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


class Workload:
    name = ""
    unit = ""  # what one unit of ``work_per_s`` is

    def __init__(self, seed: int):
        self.seed = seed

    def construct(self):
        raise NotImplementedError

    def inputs(self, k: int):
        return None

    def run_pass(self, state, inputs, between):
        raise NotImplementedError

    def units(self, out) -> float:
        raise NotImplementedError

    def check(self, inputs, out) -> List[str]:
        raise NotImplementedError

    def counters(self, out) -> Dict[str, float]:
        """Per-layer counters the program reports in its own output."""
        return {}


class DryrunP64(Workload):
    """Table-2 p=64 stems of both schemes on the shape backend."""

    name, unit = "dryrun_p64", "stem layers/s"

    def __init__(self, seed: int):
        super().__init__(seed)
        s = _p64()
        self.cfg_o, self.cfg_m = s["model_optimus"], s["model_megatron"]
        self.b_o, self.b_m = s["batch_optimus"], s["batch_megatron"]
        rows = json.loads((ROOT / "benchmarks/results/table2.json").read_text())["rows"]
        self.expected = {r["scheme"]: r for r in rows if r["num_devices"] == 64}

    def construct(self):
        from repro.megatron.model import MegatronModel

        _optimus_stem(self.cfg_o, trace=False)
        sim = Simulator.for_flat(p=64, gpus_per_node=4, backend="shape")
        params = init_transformer_params(self.cfg_m, backend="shape", dtype="float32",
                                         include_embedding=False)
        MegatronModel(sim, self.cfg_m, params, checkpoint_activations=True, stem_only=True)

    def run_pass(self, state, inputs, between):
        from repro.experiments.runner import run_megatron_stem, run_optimus_stem

        optimus = run_optimus_stem(self.cfg_o, q=8, batch_size=self.b_o)
        between()
        return optimus, run_megatron_stem(self.cfg_m, p=64, batch_size=self.b_m)

    def units(self, out) -> float:
        return self.cfg_o.num_layers + self.cfg_m.num_layers

    def check(self, inputs, out) -> List[str]:
        problems = []
        for res in out:
            row = self.expected[res.scheme]
            for key, want in row.items():
                got = getattr(res, key)
                if got != want:
                    problems.append(f"{res.scheme} {key} = {got!r}, table2.json has {want!r}")
        return problems


class ServeDefault(Workload):
    """The default ``repro serve`` mix: {optimus, megatron} x {poisson, bursty}.

    Pass ``k`` of a run with seed ``s`` serves the traffic of
    ``TrafficGenerator(seed=1000 * s + k)``, so a run averages over many
    traffic draws and seed 0 starts with the committed baseline's traffic.
    """

    name, unit = "serve_default", "tokens/s"

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.serving.report import DEFAULTS

        self.cfg = tiny_config(num_heads=4)
        self.knobs = dict(DEFAULTS)
        self.baseline = (ROOT / "benchmarks/serving_baseline.json").read_bytes()

    def _blocks(self, scheme: str) -> int:
        return self.knobs["blocks"] * (1 if scheme == "optimus" else self.knobs["q"])

    def construct(self):
        from repro.serving.engine import make_engine
        from repro.serving.report import PARAM_SEED, SCHEMES

        params = init_transformer_params(self.cfg, seed=PARAM_SEED)
        k = self.knobs
        for scheme in SCHEMES:
            make_engine(scheme, self.cfg, params, k["q"], k["slots"], k["block_size"],
                        self._blocks(scheme))
        return params

    def inputs(self, k: int):
        from repro.serving.traffic import ARRIVAL_PROFILES, TrafficGenerator

        seed = 1000 * self.seed + k
        gens = [
            TrafficGenerator(seed=seed, vocab_size=self.cfg.vocab_size, arrival=arrival,
                             rate_rps=float(self.knobs["rate_rps"]),
                             num_requests=int(self.knobs["requests"]))
            for arrival in ARRIVAL_PROFILES
        ]
        return seed, [(g.arrival, g.describe(), g.generate()) for g in gens]

    def run_pass(self, params, inputs, between):
        from repro.serving.report import SCHEMES, run_arm

        k = self.knobs
        entries = []
        for arrival, _, requests in inputs[1]:
            for scheme in SCHEMES:
                if entries:
                    between()
                entry, _ = run_arm(
                    scheme, self.cfg, params, requests, q=k["q"], slots=k["slots"],
                    block_size=k["block_size"], blocks=k["blocks"],
                    slo_ttft=k["slo_ttft"], slo_tpot=k["slo_tpot"],
                )
                entry["arrival"] = arrival
                entries.append(entry)
        return entries

    def report(self, inputs, entries) -> dict:
        """The document ``repro serve --seed <seed>`` writes for these entries."""
        from dataclasses import asdict

        from repro.core import summa
        from repro.serving.report import PARAM_SEED, REPORT_SCHEMA

        k = self.knobs
        return {
            "report": REPORT_SCHEMA,
            "seed": inputs[0],
            "quick": False,
            "model": {**asdict(self.cfg), "param_seed": PARAM_SEED},
            "serving": {key: k[key] for key in ("q", "slots", "block_size", "blocks")}
            | {"rate_rps": float(k["rate_rps"])},
            "slo": {"ttft_s": float(k["slo_ttft"]), "tpot_s": float(k["slo_tpot"])},
            "summa_flags": summa.effective_flags(),
            "traffic": [doc for _, doc, _ in inputs[1]],
            "schemes": entries,
        }

    def units(self, entries) -> float:
        return sum(e["generated_tokens"] for e in entries)

    def check(self, inputs, entries) -> List[str]:
        problems = []
        digests: Dict[str, set] = {}
        for e in entries:
            if e["completed"] != e["requests"]:
                problems.append(f"{e['scheme']}/{e['arrival']}: "
                                f"{e['completed']}/{e['requests']} requests completed")
            digests.setdefault(e["arrival"], set()).add(e["tokens_sha256"])
        for arrival, seen in digests.items():
            if len(seen) != 1:
                problems.append(f"{arrival}: schemes generated different tokens {sorted(seen)}")
        if inputs[0] == 0:
            text = json.dumps(self.report(inputs, entries), indent=2, sort_keys=True) + "\n"
            if text.encode() != self.baseline:
                problems.append("traffic seed 0: report differs from "
                                "benchmarks/serving_baseline.json")
        return problems

    def counters(self, entries) -> Dict[str, float]:
        lanes = sum(e["lane_steps"] for e in entries)
        padded = sum(e["padded_lane_steps"] for e in entries)
        return {
            "serving.engine.steps": sum(e["steps"] for e in entries),
            "serving.engine.lane_util": 1.0 - padded / lanes if lanes else 0.0,
        }


class CritpathP64(Workload):
    """The traced Optimus Table-2 p=64 stem, cut to ``CRITPATH_LAYERS``
    layers, then its critical-path report."""

    name, unit = "critpath_p64", "events/s"

    def __init__(self, seed: int):
        super().__init__(seed)
        s = _p64()
        self.cfg = dataclasses.replace(s["model_optimus"], num_layers=CRITPATH_LAYERS)
        self.batch = s["batch_optimus"]

    def construct(self):
        _optimus_stem(self.cfg, trace=True)

    def run_pass(self, state, inputs, between):
        from repro.obs.critpath import critpath_report

        sim, model = _optimus_stem(self.cfg, trace=True)
        model.stem_forward(self.batch)
        model.stem_backward()
        between()
        return len(sim.tracer.events), critpath_report(sim)

    def units(self, out) -> float:
        return out[0]

    def check(self, inputs, out) -> List[str]:
        digest = _sha256(out[1])
        if digest != CRITPATH_P64_SHA256:
            return [f"critpath report sha256 {digest} != recorded {CRITPATH_P64_SHA256}"]
        return []


class TrainChaos(Workload):
    """The seeded chaos campaign: optimus, megatron and hybrid, 10 steps each,
    fault-free and faulted with checkpoints."""

    name, unit = "train_chaos", "steps/s"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.first_digest = None

    def construct(self):
        from repro.core.model import OptimusModel
        from repro.hybrid.data_parallel import DataParallel
        from repro.megatron.model import MegatronModel
        from repro.mesh.mesh import Mesh

        cfg = tiny_config(num_layers=2)
        sim = Simulator.for_mesh(q=2)
        OptimusModel(Mesh(sim, 2), cfg, init_transformer_params(cfg, seed=1))
        MegatronModel(Simulator.for_flat(p=2), cfg, init_transformer_params(cfg, seed=1))
        DataParallel.build(num_replicas=2, q=2, cfg=cfg, seed=1)

    def run_pass(self, state, inputs, between):
        from repro.resilience.chaos import SCHEMES, run_campaign

        # one campaign per scheme, so the runner can split the pass; the
        # schemes share nothing, so the merged report is run_campaign(seed)'s
        reports = []
        for scheme in SCHEMES:
            if reports:
                between()
            reports.append(run_campaign(seed=self.seed, schemes=(scheme,)))
        results = [r for report in reports for r in report["schemes"]]
        return {**reports[0], "schemes": results, "ok": all(r["ok"] for r in results)}

    def units(self, report) -> float:
        # committed steps of the fault-free and the faulted trainer per scheme
        return 2 * report["steps"] * len(report["schemes"])

    def check(self, inputs, report) -> List[str]:
        problems = [f"{s['scheme']}: recovery not bit-exact or faults did not fire"
                    for s in report["schemes"] if not s["ok"]]
        digest = _sha256(report)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("campaign report differs from this run's first pass")
        return problems

    def counters(self, report) -> Dict[str, float]:
        return {"resilience.retries": sum(s["stats"]["retries"] for s in report["schemes"])}


WORKLOADS = {w.name: w for w in (DryrunP64, ServeDefault, CritpathP64, TrainChaos)}
