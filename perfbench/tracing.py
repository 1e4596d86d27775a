"""Per-layer host-time attribution for the benchmark's traced run.

The traced run wraps the public functions of each layer of the ``repro``
package from the benchmark's own files; nothing under ``src/`` changes.
Every wrapped call records a span (name, start, end, parent span) into
flat in-memory arrays, and every span of one pass sits under that pass's
root span, so a pass id is the root it descends from.  A layer's self
time is the duration of its spans minus the time their child spans cover;
the root span's self time is the pass time no wrapped layer claims
(``trace.unattributed_s``).

A wrapper is installed at every place a caller looks the name up: the
defining module or class, and every module global bound to the same
function object (``from repro.core.summa import summa_ab`` binds a second
name).  After installing, a scan of the garbage collector's referrers
fails loudly if any other reference to an original function remains —
a bound method, a ``functools.partial`` or a dispatch table would keep
calling the unwrapped function and read as zero calls.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import sys
import time
import types
from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

DRYRUN, SERVE, CRITPATH, CHAOS = "dryrun_p64", "serve_default", "critpath_p64", "train_chaos"
ALL_WORKLOADS = (DRYRUN, SERVE, CRITPATH, CHAOS)

#: dunder methods that are entry points into a layer (construction,
#: context managers, indexing and ShapeArray's arithmetic operators)
ENTRY_DUNDERS = frozenset(
    """__init__ __call__ __enter__ __exit__ __getitem__ __setitem__
    __add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ __rtruediv__
    __pow__ __rpow__ __mod__ __floordiv__ __neg__ __lt__ __le__ __gt__ __ge__
    __eq__ __ne__ __and__ __or__ __xor__ __rand__ __ror__ __invert__
    __matmul__ __rmatmul__""".split()
)

#: classes whose instances a traced pass keeps, to read the program's own
#: counters afterwards (bytes moved, pool hits, committed training steps)
CAPTURED_CLASSES = ("repro.runtime.simulator:Simulator", "repro.training.trainer:Trainer")


@dataclass(frozen=True)
class Layer:
    """One attributed layer: the functions it wraps and where it must run.

    A target is ``"module"`` (every public function of the module and every
    public method of its public classes), ``"module:Class"`` (one class's
    public methods, private class names allowed) or ``"module:name"`` /
    ``"module:Class.method"`` (one function, private names allowed).
    ``used_on`` lists the workloads on which the layer must record calls;
    ``idle_on`` those on which it must record none.
    """

    name: str
    targets: Tuple[str, ...]
    used_on: Tuple[str, ...] = ()
    idle_on: Tuple[str, ...] = ()


def _others(*used: str) -> Tuple[str, ...]:
    return tuple(w for w in ALL_WORKLOADS if w not in used)


LAYERS: Tuple[Layer, ...] = (
    # ShapeArray itself; the is_shape_array type test runs on both backends
    Layer("backend.shape_array", ("repro.backend.shape_array:ShapeArray",),
          (DRYRUN, CRITPATH), (SERVE, CHAOS)),
    Layer("core.summa", ("repro.core.summa",), ALL_WORKLOADS),
    Layer("core.buffers", ("repro.core.buffers",), ALL_WORKLOADS),
    # the 2D model stack: layers plus the model, embedding and loss around them
    Layer("core.layers", ("repro.core.layers", "repro.core.model",
                          "repro.core.embedding", "repro.core.loss"), ALL_WORKLOADS),
    Layer("megatron.layers", ("repro.megatron.layers", "repro.megatron.model",
                              "repro.megatron.embedding", "repro.megatron.loss"),
          (DRYRUN, SERVE, CHAOS), (CRITPATH,)),
    Layer("comm.collectives", ("repro.comm.collectives",), ALL_WORKLOADS),
    Layer("runtime.device", ("repro.runtime.device",), ALL_WORKLOADS),
    # tracer writes only: with tracing off no span handle or event is made
    Layer("runtime.events", ("repro.runtime.events:Tracer.record",
                             "repro.runtime.events:_SpanHandle"),
          (CRITPATH,), _others(CRITPATH)),
    Layer("obs.critpath.build_windows", ("repro.obs.critpath:build_windows",),
          (CRITPATH,), _others(CRITPATH)),
    Layer("obs.critpath.attribute_window", ("repro.obs.critpath:attribute_window",),
          (CRITPATH,), _others(CRITPATH)),
    Layer("obs.critpath.critical_path", ("repro.obs.critpath:critical_path",),
          (CRITPATH,), _others(CRITPATH)),
    Layer("obs.critpath.rank_bottlenecks", ("repro.obs.critpath:rank_bottlenecks",),
          (CRITPATH,), _others(CRITPATH)),
    Layer("obs.critpath.report", ("repro.obs.critpath:critpath_report",),
          (CRITPATH,), _others(CRITPATH)),
    Layer("serving.engine", ("repro.serving.engine",), (SERVE,), _others(SERVE)),
    Layer("serving.scheduler", ("repro.serving.scheduler",), (SERVE,), _others(SERVE)),
    Layer("serving.kvcache", ("repro.serving.kvcache",), (SERVE,), _others(SERVE)),
    # _run_step is one attempted optimizer step; it has no public name
    Layer("training.trainer", ("repro.training.trainer:Trainer",
                               "repro.training.trainer:Trainer._run_step"),
          (CHAOS,), _others(CHAOS)),
    Layer("training.optim", ("repro.training.optim",
                             "repro.training.optim:_DistOptimizerBase"),
          (CHAOS,), _others(CHAOS)),
    Layer("resilience", ("repro.resilience.trainer", "repro.resilience.injector",
                         "repro.resilience.faults"), (CHAOS,), _others(CHAOS)),
    Layer("serialization", ("repro.serialization",), (CHAOS,), _others(CHAOS)),
    Layer("nn.init", ("repro.nn.init",), ALL_WORKLOADS),
    Layer("runtime.simulator", ("repro.runtime.simulator:Simulator.__init__",
                                "repro.runtime.simulator:Simulator.for_mesh",
                                "repro.runtime.simulator:Simulator.for_flat"),
          ALL_WORKLOADS),
)

STEP_TARGET = "repro.training.trainer:Trainer._run_step"


def _is_entry(name: str) -> bool:
    return not name.startswith("_") or name in ENTRY_DUNDERS


def _unwrap(attr):
    """The plain function behind a class attribute, or None."""
    fn = attr.__func__ if isinstance(attr, (staticmethod, classmethod)) else attr
    if isinstance(fn, types.FunctionType) and not inspect.isgeneratorfunction(fn):
        return fn
    return None


def _class_sites(cls, only: str = ""):
    for name, attr in list(vars(cls).items()):
        if (name == only) if only else _is_entry(name):
            fn = _unwrap(attr)
            if fn is not None:
                yield cls, name, attr, fn


def expand(target: str):
    """Yield ``(owner, attribute, current value, function)`` for a target."""
    mod_name, _, path = target.partition(":")
    mod = importlib.import_module(mod_name)
    if not path:
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                continue
            if isinstance(obj, type):
                yield from _class_sites(obj)
            elif _unwrap(obj) is not None:
                yield mod, name, obj, obj
        return
    head, _, method = path.partition(".")
    obj = getattr(mod, head)
    if method:
        sites = list(_class_sites(obj, only=method))
    elif isinstance(obj, type):
        sites = list(_class_sites(obj))
    else:
        sites = [(mod, head, obj, obj)] if _unwrap(obj) is not None else []
    if not sites:
        raise LookupError(f"trace target {target!r} names no wrappable function")
    yield from sites


class LayerTracer:
    """Wraps the layers' functions and records their spans per pass."""

    ROOT = "pass"

    def __init__(self, layers: Sequence[Layer] = LAYERS):
        self.layers = tuple(layers)
        #: span name id -> (target name, layer index); id 0 is the pass root
        self.names: List[str] = [self.ROOT]
        self.layer_of: List[int] = [len(self.layers)]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        #: (label, first span, end span) of every traced pass
        self.passes: List[Tuple[str, int, int]] = []
        self.instances: List[object] = []
        self._sites: List[Tuple[object, str, object, object]] = []
        self._installed = False

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrapper(self, fn, nid: int, capture: bool):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        instances, clock = self.instances, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if capture:
                instances.append(args[0])
            return out

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__module__ = fn.__module__
        return traced

    def install(self) -> None:
        """Wrap every target and check that no caller can bypass a wrapper."""
        wrapped: Dict[int, Tuple[object, object]] = {}  # id(fn) -> (fn, wrapper)
        for li, layer in enumerate(self.layers):
            for target in layer.targets:
                for owner, name, attr, fn in expand(target):
                    if id(fn) not in wrapped:
                        qual = f"{fn.__module__}:{fn.__qualname__}"
                        capture = name == "__init__" and any(
                            f"{owner.__module__}:{owner.__qualname__}" == c
                            for c in CAPTURED_CLASSES
                        )
                        self.names.append(f"{owner.__module__}:{owner.__qualname__}.{name}"
                                          if isinstance(owner, type) else qual)
                        self.layer_of.append(li)
                        wrapped[id(fn)] = (fn, self._wrapper(fn, len(self.names) - 1, capture))
                    w = wrapped[id(fn)][1]
                    new = type(attr)(w) if isinstance(attr, (staticmethod, classmethod)) else w
                    self._sites.append((owner, name, attr, new))
        # names bound by ``from module import fn`` elsewhere
        seen = {(id(o), n) for o, n, _, _ in self._sites}
        for mod in list(sys.modules.values()):
            if not isinstance(mod, types.ModuleType):
                continue
            for name, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val and (id(mod), name) not in seen:
                    self._sites.append((mod, name, val, hit[1]))
        self.enable()
        self._installed = True
        self._check_no_bypass(wrapped)

    def _check_no_bypass(self, wrapped) -> None:
        originals = [fn for fn, _ in wrapped.values()]
        known = {id(originals), id(self._sites), id(wrapped)}
        known.update(id(s) for s in self._sites)
        known.update(id(s[2]) for s in self._sites)  # replaced descriptors
        known.update(id(v) for v in wrapped.values())
        for _, w in wrapped.values():
            known.update(id(c) for c in w.__closure__ or ())
        stale = []
        for ref in gc.get_referrers(*originals):
            if id(ref) in known or isinstance(ref, types.FrameType):
                continue
            stale.append(f"{type(ref).__name__}: {repr(ref)[:160]}")
        if stale:
            self.disable()
            raise RuntimeError(
                "trace wrappers can be bypassed; these objects still hold an "
                "unwrapped layer function:\n  " + "\n  ".join(stale)
            )

    def enable(self) -> None:
        for owner, name, _, new in self._sites:
            setattr(owner, name, new)

    def disable(self) -> None:
        for owner, name, old, _ in reversed(self._sites):
            setattr(owner, name, old)

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------
    def begin_pass(self, label: str) -> float:
        if self._stack != [-1]:
            raise RuntimeError(f"pass {label!r} begins inside an open span")
        self.instances.clear()
        i = len(self.span_start)
        self.span_name.append(0)
        self.span_parent.append(-1)
        self.span_end.append(0.0)
        self._stack.append(i)
        self.passes.append((label, i, -1))
        t0 = time.perf_counter()
        self.span_start.append(t0)
        return t0

    def end_pass(self) -> float:
        t1 = time.perf_counter()
        label, lo, _ = self.passes[-1]
        if self._stack != [-1, lo]:
            raise RuntimeError(f"pass {label!r} ends with spans still open: {self._stack}")
        self.span_end[lo] = t1
        self._stack.pop()
        self.passes[-1] = (label, lo, len(self.span_start))
        return t1

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return name, parent, dur, dur - child

    def pass_stats(self) -> List[dict]:
        """Per traced pass: calls, self time and outermost inclusive time per
        layer, calls per target, and the harness checks' problems."""
        name, parent, dur, self_t = self._arrays()
        layer = np.asarray(self.layer_of, dtype=np.int64)[name]
        n_layers = len(self.layers) + 1  # last slot: the pass root
        out = []
        for label, lo, hi in self.passes:
            sl = slice(lo, hi)
            lay, par = layer[sl], parent[sl]
            outer = np.ones(hi - lo, dtype=bool)
            outer[1:] = layer[par[1:]] != lay[1:]
            wall = float(dur[lo])
            self_sum = float(self_t[sl].sum())
            problems = []
            if abs(self_sum - wall) > 1e-9 * max(1.0, wall) + 1e-12 * (hi - lo):
                problems.append(
                    f"{label}: layer self times + unattributed = {self_sum!r} s "
                    f"but the pass took {wall!r} s"
                )
            if (self_t[sl] < -1e-9).any() or (dur[sl] < 0).any():
                problems.append(f"{label}: a span has negative self time")
            if hi - lo > 1 and (par[1:] < lo).any():
                problems.append(f"{label}: a span escapes its pass root")
            out.append({
                "label": label,
                "wall_s": wall,
                "calls": np.bincount(lay, minlength=n_layers)[:-1],
                "self_s": np.bincount(lay, weights=self_t[sl], minlength=n_layers)[:-1],
                "inclusive_s": np.bincount(lay, weights=dur[sl] * outer,
                                           minlength=n_layers)[:-1],
                "target_calls": np.bincount(name[sl], minlength=len(self.names)),
                "unattributed_s": float(self_t[lo]),
                "problems": problems,
            })
        return out

    def call_checks(self, workload: str, stats: List[dict]) -> List[str]:
        """A layer predicted to run must record calls; one predicted idle, none."""
        total = sum(s["calls"] for s in stats)
        problems = []
        for i, layer in enumerate(self.layers):
            if workload in layer.used_on and total[i] == 0:
                problems.append(f"{layer.name}: predicted to run on {workload} but "
                                "recorded no calls (a wrapper is not reached)")
            if workload in layer.idle_on and total[i] != 0:
                problems.append(f"{layer.name}: predicted idle on {workload} but "
                                f"recorded {int(total[i])} calls")
        return problems

    def write(self, path) -> None:
        """Save every span (with its pass id) as one ``.npz`` file."""
        name, parent, _, _ = self._arrays()
        pass_id = np.zeros(len(name), dtype=np.int32)
        for k, (_, lo, hi) in enumerate(self.passes):
            pass_id[lo:hi] = k
        np.savez(
            path,
            name=name, parent=parent, pass_id=pass_id,
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
            names=np.array(self.names),
            layers=np.array([lay.name for lay in self.layers] + ["trace.unattributed"]),
            layer_of=np.asarray(self.layer_of, dtype=np.int32),
            pass_labels=np.array([p[0] for p in self.passes]),
        )
