"""SUMMA matrix products on a q×q mesh (paper §2.4, Algorithms 1–3).

All three products consume and produce ``BLOCKED_2D`` DTensors.  Following
the paper's key observation, the set {AB, ABᵀ, AᵀB} is closed under
differentiation (Eqs. 1–3):

    C = AB   →  dA = dC·Bᵀ (Alg. 2),  dB = Aᵀ·dC (Alg. 3)
    C = ABᵀ  →  dA = dC·B  (Alg. 1),  dB = dCᵀ·A (Alg. 3)
    C = AᵀB  →  dA = B·dCᵀ (Alg. 2*), dB = A·dC  (Alg. 1)

so every backward pass is again a composition of these three primitives —
no new communication patterns are needed (see :func:`grads_of_ab` etc.).

Communication per step l:

* Alg. 1 broadcasts ``A_{il}`` in every row and ``B_{lj}`` in every column;
* Alg. 2 broadcasts ``B_{lj}`` in columns and *reduces* partial products in
  rows to the step's owner column l;
* Alg. 3 broadcasts ``A_{il}`` in rows and reduces partials in columns.

Each local block product charges ``2·(m/q)(k/q)(n/q)`` FLOPs; broadcast /
reduce scratch lives in the buffer manager's workspace region (§3.2.3).

Hot-path engineering (this module is the simulator's innermost loop):

* **Plan cache** — the communication schedule of a SUMMA product (which
  group broadcasts which root's block, the α–β price of every collective,
  per-rank FLOP and scratch-byte counts) depends only on ``(mesh, global
  shapes, dtypes)``.  It is computed once per distinct key and cached on
  the mesh, so the q-step loop stops recomputing group membership, byte
  counts, and tree-stage timing on every call.  Plans charge *identical*
  quantities to the uncached path by construction — the ``repro check``
  oracle and the collective contract checker both run against planned
  execution.
* **Scratch-buffer pool** — per-step partial products go through
  :class:`~repro.core.buffers.ArrayPool` (``np.matmul(..., out=pooled)``
  followed by an in-place accumulate), which is bit-identical to the
  out-of-place product while eliminating the per-step ndarray allocations.

Both optimizations can be disabled — per call site via :func:`configure` /
:func:`optimizations`, or process-wide via ``REPRO_SUMMA_PLAN_CACHE=0`` and
``REPRO_SUMMA_POOL=0`` — which is how ``repro bench`` measures their effect
(the ``macro/optimus_stem_ab`` A/B benchmark).

* **Batched-mesh execution** (opt-in, ``REPRO_SUMMA_BATCHED=1``) — the
  simulator executes ranks one at a time in Python loops, so a q×q mesh
  costs q² interpreter round-trips per SUMMA step.  When every per-rank
  block of a product shares one shape and dtype (the uniform, non-MoE
  case), the per-step gemms are one *batched* matrix product: stacking the
  q row blocks of A and q column blocks of B along a leading rank axis
  turns step l's q² rank-local products into a single broadcasted
  ``np.matmul`` (``(q,1,m,k) @ (1,q,k,n) → (q,q,m,n)``), and the reduce
  folds of Algorithms 2–3 into vectorized in-place adds in group-rank
  order.  Results are scattered back as views into per-rank DTensor
  shards.  Accounting is *replayed* from the plan in the exact per-rank
  call order (charge-only collectives, per-gemm ``device.compute`` and
  workspace holds), so clocks, byte counters, weighted volumes, memory
  peaks, and trace events/spans are bit-identical to the per-rank path.
  Ragged shard signatures (MoE expert blocks), dryrun ShapeArrays, q=1
  meshes, armed fault injectors and patched collectives (the contract
  checker, the legacy bench arm) all fall back to the per-rank path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.backend import ops
from repro.backend.dtypes import result_float
from repro.backend.shape_array import is_shape_array
from repro.comm import collectives as coll
from repro.core.buffers import ArrayPool, BufferManager
from repro.mesh.dtensor import DTensor
from repro.mesh.layouts import BLOCKED_2D
from repro.mesh.mesh import Mesh
from repro.runtime.events import NULL_SPAN


def _env_flag(name: str, default: bool = True) -> bool:
    v = os.environ.get(name)
    if v is None:
        return default
    return v.lower() not in ("0", "false", "no", "off")


_PLAN_CACHE_ENABLED = _env_flag("REPRO_SUMMA_PLAN_CACHE")
_POOL_ENABLED = _env_flag("REPRO_SUMMA_POOL")
_BATCHED_ENABLED = _env_flag("REPRO_SUMMA_BATCHED", default=False)

#: the unpatched collectives entry points.  The batched engine bypasses
#: per-rank broadcast/reduce calls, so whenever these module attributes have
#: been replaced (collective contract checker, the legacy pre-optimization
#: bench arm, test monkey-patching) it must fall back to the per-rank path
#: or the patcher would observe nothing.
_PRISTINE_BROADCAST = coll.broadcast
_PRISTINE_REDUCE = coll.reduce


def configure(
    plan_cache: Optional[bool] = None,
    pool: Optional[bool] = None,
    batched: Optional[bool] = None,
):
    """Toggle the plan cache / scratch pool / batched engine; returns the
    previous settings as a ``(plan_cache, pool, batched)`` tuple."""
    global _PLAN_CACHE_ENABLED, _POOL_ENABLED, _BATCHED_ENABLED
    previous = (_PLAN_CACHE_ENABLED, _POOL_ENABLED, _BATCHED_ENABLED)
    if plan_cache is not None:
        _PLAN_CACHE_ENABLED = bool(plan_cache)
    if pool is not None:
        _POOL_ENABLED = bool(pool)
    if batched is not None:
        _BATCHED_ENABLED = bool(batched)
    return previous


@contextmanager
def optimizations(
    plan_cache: bool = True, pool: bool = True, batched: Optional[bool] = None
):
    """Scoped toggle, mainly for A/B benchmarking and tests.

    ``batched=None`` leaves the batched-engine setting untouched (it is
    opt-in, unlike the default-on plan cache and pool)."""
    previous = configure(plan_cache, pool, batched)
    try:
        yield
    finally:
        configure(*previous)


def flags_from_env() -> dict:
    """The REPRO_SUMMA_* flag set as the *current* environment resolves it.

    Unlike the module globals (snapshotted once at import), this re-reads
    ``os.environ`` on every call — it is how ``repro bench`` A/B arms that
    flip ``REPRO_SUMMA_BATCHED`` between arms inside one process get
    per-arm flag resolution instead of the import-time snapshot.
    """
    return {
        "plan_cache": _env_flag("REPRO_SUMMA_PLAN_CACHE"),
        "pool": _env_flag("REPRO_SUMMA_POOL"),
        "batched": _env_flag("REPRO_SUMMA_BATCHED", default=False),
    }


def resolve_env_flags() -> dict:
    """Re-read the REPRO_SUMMA_* environment and apply it; returns the
    flags now in effect (per-arm resolution for in-process A/B runs)."""
    flags = flags_from_env()
    configure(**flags)
    return flags


def effective_flags() -> dict:
    """The flag set actually in effect right now (for bench JSON records)."""
    return {
        "plan_cache": _PLAN_CACHE_ENABLED,
        "pool": _POOL_ENABLED,
        "batched": _BATCHED_ENABLED,
    }


def _check_blocked(x: DTensor, name: str) -> None:
    if x.layout != BLOCKED_2D:
        raise ValueError(f"{name} must be BLOCKED_2D, got {x.layout}")
    if len(x.global_shape) != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got {x.global_shape}")


def _gemm_flops(a_shape, b_cols: int) -> float:
    m, k = a_shape
    return 2.0 * m * k * b_cols


def _pool_of(sim) -> ArrayPool:
    pool = getattr(sim, "_array_pool", None)
    if pool is None:
        pool = sim._array_pool = ArrayPool()
    return pool


# ----------------------------------------------------------------------
# execution plans
# ----------------------------------------------------------------------
class _Plan:
    """The precomputed schedule of one SUMMA product on one mesh.

    ``steps`` holds, per SUMMA step l, tuples of

    * broadcast ops  — ``(group, root, (dt, nbytes, weighted))``;
    * gemm ops       — ``(rank, device, flops, scratch_nbytes, out_shape)``;
    * reduce ops     — ``(group, root, (dt, nbytes, weighted))`` (Algs. 2–3).

    The precost triples are exactly what the collective would recompute from
    the block's byte size, so charging is identical to unplanned execution.
    """

    __slots__ = ("steps", "numeric", "out_dtype", "batched")

    def __init__(self, steps, numeric, out_dtype):
        self.steps = steps
        self.numeric = numeric
        self.out_dtype = out_dtype
        #: lazily-built batched-mesh descriptor: ``None`` = not yet
        #: examined, ``False`` = ineligible (ragged/dryrun/q=1), else a
        #: :class:`_BatchedDesc`.  Built on first batched execution so the
        #: per-rank path never pays for it.
        self.batched = None


def _dtype_sig(mesh: Mesh, x: DTensor):
    # Per-rank dtypes, not just the DTensor-level (first shard's) dtype:
    # non-strict mode permits mixed per-shard dtypes, and a mixed tensor
    # colliding with the uniform plan would reuse the wrong out-dtype and
    # wrong scratch/broadcast byte counts (stale-cache bug, PR 7).
    # Keyed by the dtype objects themselves: ``np.dtype.name`` is a
    # Python-level getter, and this runs on every SUMMA call.
    shards = x.shards
    return tuple(shards[r].dtype for r in mesh.ranks)


def _out_dtype(a: DTensor, b: DTensor, numeric: bool):
    ablk = next(iter(a.shards.values()))
    bblk = next(iter(b.shards.values()))
    if numeric:
        return np.result_type(ablk.dtype, bblk.dtype)
    return result_float(ablk.dtype, bblk.dtype)


def _bcast_op(group, root, blk):
    nb = ops.nbytes(blk)
    model = group.model
    return (group, root, (model.broadcast_time(nb), nb, model.broadcast_weighted_volume(nb)))


def _reduce_op(group, root, nbytes):
    model = group.model
    return (group, root, (model.reduce_time(nbytes), nbytes, model.reduce_weighted_volume(nbytes)))


def _shape_sig(mesh: Mesh, x: DTensor):
    # Per-rank local shapes, not just the global shape: ragged BLOCKED_2D
    # tensors (e.g. MoE expert blocks sized by routed token counts) share a
    # global shape across calls while their block shapes differ.
    shards = x.shards
    return tuple(shards[r].shape for r in mesh.ranks)


def _plan_key(mesh: Mesh, algo: str, a: DTensor, b: DTensor, numeric: bool):
    return (
        algo,
        a.global_shape,
        b.global_shape,
        _shape_sig(mesh, a),
        _shape_sig(mesh, b),
        _dtype_sig(mesh, a),
        _dtype_sig(mesh, b),
        numeric,
    )


def _get_plan(mesh: Mesh, algo: str, a: DTensor, b: DTensor, builder) -> _Plan:
    numeric = not is_shape_array(next(iter(a.shards.values())))
    if not _PLAN_CACHE_ENABLED:
        return builder(mesh, a, b, numeric)
    cache = getattr(mesh, "_summa_plans", None)
    if cache is None:
        cache = mesh._summa_plans = {}
    key = _plan_key(mesh, algo, a, b, numeric)
    plan = cache.get(key)
    if plan is None:
        plan = cache[key] = builder(mesh, a, b, numeric)
    return plan


def plan_cache_size(mesh: Mesh) -> int:
    """Number of cached SUMMA plans on a mesh (observability/test hook)."""
    return len(getattr(mesh, "_summa_plans", ()))


def _build_ab(mesh: Mesh, a: DTensor, b: DTensor, numeric: bool) -> _Plan:
    q = mesh.q
    out_dtype = _out_dtype(a, b, numeric)
    steps = []
    for l in range(q):
        a_bc = []
        for i in range(q):
            root = mesh.rank(i, l)
            a_bc.append(_bcast_op(mesh.row_groups[i], root, a.shards[root]))
        b_bc = []
        for j in range(q):
            root = mesh.rank(l, j)
            b_bc.append(_bcast_op(mesh.col_groups[j], root, b.shards[root]))
        gemms = []
        for rank in mesh.ranks:
            i, j = mesh.coords(rank)
            ablk = a.shards[mesh.rank(i, l)]
            bblk = b.shards[mesh.rank(l, j)]
            m, k = ablk.shape
            n = bblk.shape[1]
            scratch = ops.nbytes(ablk) + ops.nbytes(bblk)
            gemms.append((rank, mesh.device(rank), 2.0 * m * k * n, scratch, (m, n)))
        steps.append((a_bc, b_bc, gemms))
    return _Plan(steps, numeric, out_dtype)


def _build_abt(mesh: Mesh, a: DTensor, b: DTensor, numeric: bool) -> _Plan:
    q = mesh.q
    out_dtype = _out_dtype(a, b, numeric)
    itemsize = np.dtype(out_dtype).itemsize if numeric else out_dtype.itemsize
    steps = []
    for l in range(q):
        b_bc = []
        for j in range(q):
            root = mesh.rank(l, j)
            b_bc.append(_bcast_op(mesh.col_groups[j], root, b.shards[root]))
        rows = []
        for i in range(q):
            gemms = []
            m = n = 0
            for j in range(q):
                rank = mesh.rank(i, j)
                ablk = a.shards[rank]
                bblk = b.shards[mesh.rank(l, j)]
                m, k = ablk.shape
                n = bblk.shape[0]
                gemms.append(
                    (rank, mesh.device(rank), 2.0 * m * k * n, ops.nbytes(bblk), (m, n))
                )
            root = mesh.rank(i, l)
            rows.append((gemms, _reduce_op(mesh.row_groups[i], root, m * n * itemsize)))
        steps.append((b_bc, rows))
    return _Plan(steps, numeric, out_dtype)


def _build_atb(mesh: Mesh, a: DTensor, b: DTensor, numeric: bool) -> _Plan:
    q = mesh.q
    out_dtype = _out_dtype(a, b, numeric)
    itemsize = np.dtype(out_dtype).itemsize if numeric else out_dtype.itemsize
    steps = []
    for l in range(q):
        a_bc = []
        for i in range(q):
            root = mesh.rank(i, l)
            a_bc.append(_bcast_op(mesh.row_groups[i], root, a.shards[root]))
        cols = []
        for j in range(q):
            gemms = []
            m = n = 0
            for i in range(q):
                rank = mesh.rank(i, j)
                ablk = a.shards[mesh.rank(i, l)]
                bblk = b.shards[rank]
                k, m = ablk.shape
                n = bblk.shape[1]
                gemms.append(
                    (rank, mesh.device(rank), 2.0 * m * k * n, ops.nbytes(ablk), (m, n))
                )
            root = mesh.rank(l, j)
            cols.append((gemms, _reduce_op(mesh.col_groups[j], root, m * n * itemsize)))
        steps.append((a_bc, cols))
    return _Plan(steps, numeric, out_dtype)


# ----------------------------------------------------------------------
# batched-mesh execution (REPRO_SUMMA_BATCHED)
# ----------------------------------------------------------------------
class _BatchedDesc:
    """Stacking descriptor for one plan: which shards feed each step's
    batched stage and where the stacked results scatter back to."""

    __slots__ = ("q", "grid", "a_shape", "b_shape")

    def __init__(self, q, grid, a_shape, b_shape):
        self.q = q
        self.grid = grid  # grid[i][j] = mesh rank of coordinate (i, j)
        self.a_shape = a_shape  # uniform per-rank block shape of A
        self.b_shape = b_shape  # uniform per-rank block shape of B


def _uniform_sig(x: DTensor):
    """(shape, dtype) if every shard agrees on both, else None (ragged)."""
    it = iter(x.shards.values())
    first = next(it)
    shape, dtype = first.shape, first.dtype
    for s in it:
        if s.shape != shape or s.dtype != dtype:
            return None
    return tuple(shape), dtype


def _batched_of(plan: _Plan, mesh: Mesh, a: DTensor, b: DTensor):
    """The plan's batched descriptor, or None when ineligible."""
    desc = plan.batched
    if desc is None:
        desc = False
        if plan.numeric and mesh.q > 1:
            sig_a = _uniform_sig(a)
            sig_b = _uniform_sig(b)
            if sig_a is not None and sig_b is not None:
                q = mesh.q
                grid = [[mesh.rank(i, j) for j in range(q)] for i in range(q)]
                desc = _BatchedDesc(q, grid, sig_a[0], sig_b[0])
        plan.batched = desc
    return desc or None


def _batched_ready(sim) -> bool:
    """Runtime gates the plan cannot capture: unpatched collectives and a
    disarmed fault injector (both need the per-rank call sequence)."""
    inj = sim.fault_injector
    if inj is not None and inj.armed:
        return False
    return (
        coll.broadcast is _PRISTINE_BROADCAST and coll.reduce is _PRISTINE_REDUCE
    )


def _replay_gemms(gemms, buffers) -> None:
    """Charge a step's gemm accounting in exact per-rank order: workspace
    hold, device compute, workspace release — identical to the per-rank
    executors minus the numeric product."""
    for rank, dev, flops, scratch, _shape in gemms:
        if buffers is not None:
            buffers.hold("workspace", rank, scratch)
        try:
            dev.compute(flops)
        finally:
            if buffers is not None:
                buffers.release("workspace", rank, scratch)


def _stacked(pool, shards, roots, shape, dtype):
    """Stack per-rank blocks along a new leading axis (pooled when on)."""
    q = len(roots)
    out = (
        pool.acquire((q,) + shape, dtype)
        if pool is not None
        else np.empty((q,) + shape, dtype)
    )
    for t, root in enumerate(roots):
        out[t] = shards[root]
    return out


def _maybe_release(pool, *views) -> None:
    if pool is not None:
        for v in views:
            pool.release(v)


def _batched_ab(mesh, a, b, plan, buffers, desc, M, N) -> DTensor:
    sim = mesh.sim
    tr = sim.tracer
    traced = tr.enabled
    pool = _pool_of(sim) if _POOL_ENABLED else None
    ashards, bshards = a.shards, b.shards
    q = desc.q
    mb = desc.a_shape[0]
    nb = desc.b_shape[1]
    adt = a.dtype
    bdt = b.dtype
    cstk = None
    with tr.span("summa_ab", mesh.ranks, "op", M=M, K=a.global_shape[1], N=N,
                 q=q) if traced else NULL_SPAN:
        for l, (a_bc, b_bc, gemms) in enumerate(plan.steps):
            with tr.span(
                "summa_step", mesh.ranks, "summa", algo="ab", step=l
            ) if traced else NULL_SPAN:
                # accounting replay, exact per-rank order
                for group, root, cost in a_bc:
                    coll.charge_only(group, "broadcast", cost)
                for group, root, cost in b_bc:
                    coll.charge_only(group, "broadcast", cost)
                _replay_gemms(gemms, buffers)
                # the step's q² rank-local products as one batched stage
                astk = _stacked(pool, ashards, [desc.grid[i][l] for i in range(q)],
                                desc.a_shape, adt)
                bstk = _stacked(pool, bshards, [desc.grid[l][j] for j in range(q)],
                                desc.b_shape, bdt)
                if cstk is None:
                    # the output backing must outlive the call (shards are
                    # views into it), so it is never pool-owned
                    cstk = np.empty((q, q, mb, nb), plan.out_dtype)
                    ops.batched_outer_matmul(astk, bstk, out=cstk)
                else:
                    tmp = (
                        pool.acquire((q, q, mb, nb), plan.out_dtype)
                        if pool is not None
                        else np.empty((q, q, mb, nb), plan.out_dtype)
                    )
                    ops.batched_outer_matmul(astk, bstk, out=tmp)
                    np.add(cstk, tmp, out=cstk)
                    _maybe_release(pool, tmp)
                _maybe_release(pool, astk, bstk)
    c_shards = {
        desc.grid[i][j]: cstk[i, j] for i in range(q) for j in range(q)
    }
    return DTensor(mesh, BLOCKED_2D, c_shards, (M, N))


def _batched_abt(mesh, a, b, plan, buffers, desc, M, N) -> DTensor:
    sim = mesh.sim
    tr = sim.tracer
    traced = tr.enabled
    pool = _pool_of(sim) if _POOL_ENABLED else None
    ashards, bshards = a.shards, b.shards
    q = desc.q
    mb = desc.a_shape[0]
    nb = desc.b_shape[0]  # B is [N, K]; a row-l block is (nb, kb)
    # the full A stack is step-invariant: build it once per call (keep the
    # acquired view — the pool releases by identity, not by shape)
    araw = _stacked(
        pool, ashards, [desc.grid[i][j] for i in range(q) for j in range(q)],
        desc.a_shape, a.dtype,
    )
    afull = araw.reshape((q, q) + desc.a_shape)
    bdt = b.dtype
    c_shards = {}
    with tr.span("summa_abt", mesh.ranks, "op", M=M, K=a.global_shape[1], N=N,
                 q=q) if traced else NULL_SPAN:
        for l, (b_bc, rows) in enumerate(plan.steps):
            with tr.span(
                "summa_step", mesh.ranks, "summa", algo="abt", step=l
            ) if traced else NULL_SPAN:
                for group, root, cost in b_bc:
                    coll.charge_only(group, "broadcast", cost)
                for gemms, (rgroup, root, rcost) in rows:
                    _replay_gemms(gemms, buffers)
                    coll.charge_only(rgroup, "reduce", rcost)
                bstk = _stacked(pool, bshards, [desc.grid[l][j] for j in range(q)],
                                desc.b_shape, bdt)
                part = (
                    pool.acquire((q, q, mb, nb), plan.out_dtype)
                    if pool is not None
                    else np.empty((q, q, mb, nb), plan.out_dtype)
                )
                # part[i, j] = A_ij · B_ljᵀ — same BLAS gemm per slice as
                # the per-rank `ablk @ bblk.T`
                ops.batched_matmul_transb(afull, bstk, out=part)
                # fold over j in row-group rank order: copy-then-add is
                # exactly collectives._combine's in-place fast path
                out_l = ops.fold_stack_sum(part, axis=1)
                for i in range(q):
                    c_shards[desc.grid[i][l]] = out_l[i]
                _maybe_release(pool, part, bstk)
    _maybe_release(pool, araw)
    return DTensor(mesh, BLOCKED_2D, c_shards, (M, N))


def _batched_atb(mesh, a, b, plan, buffers, desc, M, N) -> DTensor:
    sim = mesh.sim
    tr = sim.tracer
    traced = tr.enabled
    pool = _pool_of(sim) if _POOL_ENABLED else None
    ashards, bshards = a.shards, b.shards
    q = desc.q
    mb = desc.a_shape[1]  # A is [K, M]; a block is (kb, mb)
    nb = desc.b_shape[1]
    braw = _stacked(
        pool, bshards, [desc.grid[i][j] for i in range(q) for j in range(q)],
        desc.b_shape, b.dtype,
    )
    bfull = braw.reshape((q, q) + desc.b_shape)
    adt = a.dtype
    c_shards = {}
    with tr.span("summa_atb", mesh.ranks, "op", M=M, K=a.global_shape[0], N=N,
                 q=q) if traced else NULL_SPAN:
        for l, (a_bc, cols) in enumerate(plan.steps):
            with tr.span(
                "summa_step", mesh.ranks, "summa", algo="atb", step=l
            ) if traced else NULL_SPAN:
                for group, root, cost in a_bc:
                    coll.charge_only(group, "broadcast", cost)
                for gemms, (cgroup, root, rcost) in cols:
                    _replay_gemms(gemms, buffers)
                    coll.charge_only(cgroup, "reduce", rcost)
                astk = _stacked(pool, ashards, [desc.grid[i][l] for i in range(q)],
                                desc.a_shape, adt)
                part = (
                    pool.acquire((q, q, mb, nb), plan.out_dtype)
                    if pool is not None
                    else np.empty((q, q, mb, nb), plan.out_dtype)
                )
                # part[i, j] = A_ilᵀ · B_ij
                ops.batched_matmul_transa(astk, bfull, out=part)
                # fold over i in column-group rank order
                out_l = ops.fold_stack_sum(part, axis=0)
                for j in range(q):
                    c_shards[desc.grid[l][j]] = out_l[j]
                _maybe_release(pool, part, astk)
    _maybe_release(pool, braw)
    return DTensor(mesh, BLOCKED_2D, c_shards, (M, N))


# ----------------------------------------------------------------------
# the three products
# ----------------------------------------------------------------------
def summa_ab(
    mesh: Mesh,
    a: DTensor,
    b: DTensor,
    buffers: Optional[BufferManager] = None,
) -> DTensor:
    """Algorithm 1: ``C = A·B`` with A=[M,K], B=[K,N] both 2-D blocked."""
    _check_blocked(a, "A")
    _check_blocked(b, "B")
    M, K = a.global_shape
    K2, N = b.global_shape
    if K != K2:
        raise ValueError(f"inner dims mismatch: A {a.global_shape} · B {b.global_shape}")
    plan = _get_plan(mesh, "ab", a, b, _build_ab)
    sim = mesh.sim
    if _BATCHED_ENABLED and _batched_ready(sim):
        desc = _batched_of(plan, mesh, a, b)
        if desc is not None:
            return _batched_ab(mesh, a, b, plan, buffers, desc, M, N)
    tr = sim.tracer
    traced = tr.enabled
    pool = _pool_of(sim) if (_POOL_ENABLED and plan.numeric) else None
    ashards, bshards = a.shards, b.shards
    c_shards = {}
    with tr.span("summa_ab", mesh.ranks, "op", M=M, K=K, N=N, q=mesh.q) if traced else NULL_SPAN:
        for l, (a_bc, b_bc, gemms) in enumerate(plan.steps):
            with tr.span(
                "summa_step", mesh.ranks, "summa", algo="ab", step=l
            ) if traced else NULL_SPAN:
                a_recv = {}
                for group, root, cost in a_bc:
                    a_recv.update(coll.broadcast(group, ashards[root], root, cost))
                b_recv = {}
                for group, root, cost in b_bc:
                    b_recv.update(coll.broadcast(group, bshards[root], root, cost))
                for rank, dev, flops, scratch, out_shape in gemms:
                    ablk, bblk = a_recv[rank], b_recv[rank]
                    if buffers is not None:
                        buffers.hold("workspace", rank, scratch)
                    try:
                        acc = c_shards.get(rank)
                        if acc is None:
                            c_shards[rank] = ablk @ bblk
                        elif pool is not None:
                            tmp = pool.acquire(out_shape, plan.out_dtype)
                            np.matmul(ablk, bblk, out=tmp)
                            np.add(acc, tmp, out=acc)
                            pool.release(tmp)
                        else:
                            c_shards[rank] = acc + (ablk @ bblk)
                        dev.compute(flops)
                    finally:
                        if buffers is not None:
                            buffers.release("workspace", rank, scratch)
    return DTensor(mesh, BLOCKED_2D, c_shards, (M, N))


def summa_abt(
    mesh: Mesh,
    a: DTensor,
    b: DTensor,
    buffers: Optional[BufferManager] = None,
) -> DTensor:
    """Algorithm 2: ``C = A·Bᵀ`` with A=[M,K], B=[N,K]; C=[M,N]."""
    _check_blocked(a, "A")
    _check_blocked(b, "B")
    M, K = a.global_shape
    N, K2 = b.global_shape
    if K != K2:
        raise ValueError(f"inner dims mismatch: A {a.global_shape} · Bᵀ of {b.global_shape}")
    plan = _get_plan(mesh, "abt", a, b, _build_abt)
    sim = mesh.sim
    if _BATCHED_ENABLED and _batched_ready(sim):
        desc = _batched_of(plan, mesh, a, b)
        if desc is not None:
            return _batched_abt(mesh, a, b, plan, buffers, desc, M, N)
    tr = sim.tracer
    traced = tr.enabled
    # q=1: the size-1 reduce is zero-copy, so a pooled partial would become
    # the output shard and never return to the pool (leak, PR 7)
    pool = _pool_of(sim) if (_POOL_ENABLED and plan.numeric and mesh.q > 1) else None
    ashards, bshards = a.shards, b.shards
    c_shards = {}
    with tr.span("summa_abt", mesh.ranks, "op", M=M, K=K, N=N, q=mesh.q) if traced else NULL_SPAN:
        for l, (b_bc, rows) in enumerate(plan.steps):
            with tr.span(
                "summa_step", mesh.ranks, "summa", algo="abt", step=l
            ) if traced else NULL_SPAN:
                b_recv = {}
                for group, root, cost in b_bc:
                    b_recv.update(coll.broadcast(group, bshards[root], root, cost))
                for gemms, (rgroup, root, rcost) in rows:
                    partials = {}
                    pooled = [] if pool is not None else None
                    for rank, dev, flops, scratch, out_shape in gemms:
                        ablk, bblk = ashards[rank], b_recv[rank]
                        if buffers is not None:
                            buffers.hold("workspace", rank, scratch)
                        try:
                            if pool is not None:
                                tmp = pool.acquire(out_shape, plan.out_dtype)
                                np.matmul(ablk, ops.transpose(bblk), out=tmp)
                                partials[rank] = tmp
                                pooled.append(tmp)
                            else:
                                partials[rank] = ablk @ ops.transpose(bblk)
                            dev.compute(flops)
                        finally:
                            if buffers is not None:
                                buffers.release("workspace", rank, scratch)
                    reduced = coll.reduce(rgroup, partials, root, "sum", rcost)
                    out = reduced[root]
                    c_shards[root] = out
                    if pooled:
                        for tmp in pooled:
                            if tmp is not out:
                                pool.release(tmp)
    return DTensor(mesh, BLOCKED_2D, c_shards, (M, N))


def summa_atb(
    mesh: Mesh,
    a: DTensor,
    b: DTensor,
    buffers: Optional[BufferManager] = None,
) -> DTensor:
    """Algorithm 3: ``C = Aᵀ·B`` with A=[K,M], B=[K,N]; C=[M,N]."""
    _check_blocked(a, "A")
    _check_blocked(b, "B")
    K, M = a.global_shape
    K2, N = b.global_shape
    if K != K2:
        raise ValueError(f"inner dims mismatch: Aᵀ of {a.global_shape} · B {b.global_shape}")
    plan = _get_plan(mesh, "atb", a, b, _build_atb)
    sim = mesh.sim
    if _BATCHED_ENABLED and _batched_ready(sim):
        desc = _batched_of(plan, mesh, a, b)
        if desc is not None:
            return _batched_atb(mesh, a, b, plan, buffers, desc, M, N)
    tr = sim.tracer
    traced = tr.enabled
    # q=1: see summa_abt — pooled partials would leak into the output
    pool = _pool_of(sim) if (_POOL_ENABLED and plan.numeric and mesh.q > 1) else None
    ashards, bshards = a.shards, b.shards
    c_shards = {}
    with tr.span("summa_atb", mesh.ranks, "op", M=M, K=K, N=N, q=mesh.q) if traced else NULL_SPAN:
        for l, (a_bc, cols) in enumerate(plan.steps):
            with tr.span(
                "summa_step", mesh.ranks, "summa", algo="atb", step=l
            ) if traced else NULL_SPAN:
                a_recv = {}
                for group, root, cost in a_bc:
                    a_recv.update(coll.broadcast(group, ashards[root], root, cost))
                for gemms, (rgroup, root, rcost) in cols:
                    partials = {}
                    pooled = [] if pool is not None else None
                    for rank, dev, flops, scratch, out_shape in gemms:
                        ablk, bblk = a_recv[rank], bshards[rank]
                        if buffers is not None:
                            buffers.hold("workspace", rank, scratch)
                        try:
                            if pool is not None:
                                tmp = pool.acquire(out_shape, plan.out_dtype)
                                np.matmul(ops.transpose(ablk), bblk, out=tmp)
                                partials[rank] = tmp
                                pooled.append(tmp)
                            else:
                                partials[rank] = ops.transpose(ablk) @ bblk
                            dev.compute(flops)
                        finally:
                            if buffers is not None:
                                buffers.release("workspace", rank, scratch)
                    reduced = coll.reduce(rgroup, partials, root, "sum", rcost)
                    out = reduced[root]
                    c_shards[root] = out
                    if pooled:
                        for tmp in pooled:
                            if tmp is not out:
                                pool.release(tmp)
    return DTensor(mesh, BLOCKED_2D, c_shards, (M, N))


# ----------------------------------------------------------------------
# closed-set backward identities (paper Eqs. 1–3)
# ----------------------------------------------------------------------
def grads_of_ab(mesh, a, b, dc, buffers=None):
    """(dA, dB) for ``C = A·B`` (Eq. 1): dA = dC·Bᵀ, dB = Aᵀ·dC."""
    da = summa_abt(mesh, dc, b, buffers)
    db = summa_atb(mesh, a, dc, buffers)
    return da, db


def grads_of_abt(mesh, a, b, dc, buffers=None):
    """(dA, dB) for ``C = A·Bᵀ`` (Eq. 3): dA = dC·B, dB = dCᵀ·A."""
    da = summa_ab(mesh, dc, b, buffers)
    db = summa_atb(mesh, dc, a, buffers)
    return da, db


def grads_of_atb(mesh, a, b, dc, buffers=None):
    """(dA, dB) for ``C = Aᵀ·B`` (Eq. 2): dA = B·dCᵀ, dB = A·dC."""
    da = summa_abt(mesh, b, dc, buffers)
    db = summa_ab(mesh, a, dc, buffers)
    return da, db
