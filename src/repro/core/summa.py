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
  per-rank FLOP and scratch-byte counts) depends only on ``(mesh, per-rank
  shapes, dtypes)``.  It is computed once per distinct key and cached on
  the mesh, so the q-step loop stops recomputing group membership, byte
  counts, and tree-stage timing on every call.  A plan's precost triples
  are exactly what each collective would compute from the block's byte
  size, so the first (plan-building) call and every cache hit charge
  identical quantities.
* **Scratch-buffer pool** — on the numpy backend, per-step partial
  products go through :class:`~repro.core.buffers.ArrayPool`
  (``np.matmul(..., out=pooled)`` followed by an in-place accumulate),
  which is bit-identical to the out-of-place product while eliminating the
  per-step ndarray allocations.  Shape-only (dryrun) operands and q=1
  reduces use out-of-place arithmetic instead.

Both are unconditional: there is one execution path per product.
"""

from __future__ import annotations

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


def effective_flags() -> dict:
    """The SUMMA optimizations in force, for reports and bench records.

    The set is fixed (the plan cache and pool are always on; the batched
    engine is gone) but the field stays: ``repro serve`` reports echo it
    as ``summa_flags`` and committed baselines compare those bytes.
    """
    return {"batched": False, "plan_cache": True, "pool": True}


def _check_blocked(x: DTensor, name: str) -> None:
    if x.layout != BLOCKED_2D:
        raise ValueError(f"{name} must be BLOCKED_2D, got {x.layout}")
    if len(x.global_shape) != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got {x.global_shape}")


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
    the block's byte size.
    """

    __slots__ = ("steps", "numeric", "out_dtype")

    def __init__(self, steps, numeric, out_dtype):
        self.steps = steps
        self.numeric = numeric
        self.out_dtype = out_dtype


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
    tr = sim.tracer
    traced = tr.enabled
    pool = _pool_of(sim) if plan.numeric else None
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
    tr = sim.tracer
    traced = tr.enabled
    # q=1: the size-1 reduce is zero-copy, so a pooled partial would become
    # the output shard and never return to the pool (leak, PR 7)
    pool = _pool_of(sim) if (plan.numeric and mesh.q > 1) else None
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
    tr = sim.tracer
    traced = tr.enabled
    # q=1: see summa_abt — pooled partials would leak into the output
    pool = _pool_of(sim) if (plan.numeric and mesh.q > 1) else None
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
