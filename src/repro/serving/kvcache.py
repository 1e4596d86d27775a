"""Block-partitioned sharded KV-cache for autoregressive decode.

Layout mirrors how the two schemes partition attention:

* **Optimus (2-D)** — attention is local per rank with b and n partitioned
  (s never is), so KV slots are assigned to mesh *rows*: the q ranks of row
  i each hold the cache of row i's slots for their n/q head block.  Per
  device that is ``2·L·(S/q)·s·(n/q)·d`` elements = ``O(bsh/p)``.
* **Megatron (1-D)** — heads are split p ways and every rank sees every
  sequence, so one shard group spans all p ranks with n/p heads each —
  also ``O(bsh/p)``.

Storage is paged: each slot owns a table of fixed-size *blocks*
(``block_size`` token positions), drawn from a per-group
:class:`KVBlockPool` with a hard capacity.  A block is *group-stacked*:
per layer it holds one K and one V array ``[R, n_loc, block_size, d]``
covering all ``R`` ranks of its shard group, in ``group.ranks`` order.  A
lane has the same KV length on every rank of its group, so
:meth:`ShardedKVCache.write` and :meth:`ShardedKVCache.gather` move the
whole group's shards in one slice and the engine runs one attention call
per lane over ``[R·n_loc, ℓ, d]``.  Device memory is still charged per
rank (:meth:`ShardedKVCache.bytes_per_rank_block`): the stacking is a
host-side layout, not a change to what each device holds.

Under the default conservative policy blocks are reserved up-front at
admission (no mid-flight OOM, no preemption) and freed when the sequence
is evicted; the preemptive policy instead reserves only the known prefix
and grows on demand
(:meth:`ShardedKVCache.ensure_capacity`), spilling preempted victims to a
:class:`HostSwapSpace` — a host-memory tier metered under its own
``"kvswap"`` tag with transfer time priced on the simulated clock.  Backing
arrays come from the shared :class:`~repro.core.buffers.ArrayPool`
free-list, and every block allocation/free is charged to the owning
simulated devices' memory meters under the ``"kvcache"`` tag, so serving
peaks show up in ledger watermarks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.buffers import ArrayPool
from repro.runtime.memory import MemoryMeter

KV_MEMORY_TAG = "kvcache"
KV_SWAP_TAG = "kvswap"

#: pseudo-rank for the host swap tier's meter (not a simulated device)
HOST_RANK = -1


class HostSwapSpace:
    """A host-memory tier for swapped-out KV blocks.

    Capacity is expressed in *blocks per shard group* (the same unit the
    device pools use); bytes are charged to a dedicated
    :class:`~repro.runtime.memory.MemoryMeter` under the ``"kvswap"`` tag so
    host-side pressure is auditable separately from device watermarks.
    Transfers are priced on the simulated clock at ``gbps`` per rank — a
    swap moves each rank's shard over its own host link concurrently.
    """

    def __init__(self, capacity_blocks: int, rank_block_bytes: int, gbps: float = 16.0):
        if capacity_blocks < 0:
            raise ValueError(f"capacity_blocks must be >= 0, got {capacity_blocks}")
        if gbps <= 0:
            raise ValueError(f"swap bandwidth must be positive, got {gbps} GB/s")
        self.capacity_blocks = capacity_blocks
        self.rank_block_bytes = rank_block_bytes
        self.bytes_per_s = gbps * 1e9
        self.meter = MemoryMeter(rank=HOST_RANK)
        self.blocks_held = 0
        self.peak_blocks = 0
        self.swap_out_count = 0
        self.swap_in_count = 0
        self.bytes_out = 0
        self.bytes_in = 0

    def can_hold(self, num_blocks: int) -> bool:
        return self.blocks_held + num_blocks <= self.capacity_blocks

    def transfer_s(self, num_blocks: int) -> float:
        """Simulated seconds to move ``num_blocks`` of one rank's shards."""
        return num_blocks * self.rank_block_bytes / self.bytes_per_s

    def stats(self) -> dict:
        return {
            "capacity_blocks": self.capacity_blocks,
            "peak_blocks": self.peak_blocks,
            "peak_bytes": self.meter.peak,
            "swap_out_count": self.swap_out_count,
            "swap_in_count": self.swap_in_count,
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
        }


@dataclass
class SwapTicket:
    """A swapped-out sequence: its K/V arrays parked in host memory.

    The array objects themselves move (no copy), so a swap-out/swap-in
    round trip is bit-exact by construction.  Tickets are bound to the
    shard group they came from — per-rank shards only make sense on the
    ranks that produced them.
    """

    slot: int
    gid: int
    stores: List[List[Tuple]]  # per block in table order: per layer (k, v)
    length: int  # committed token count at swap-out
    num_ranks: int

    @property
    def num_blocks(self) -> int:
        return len(self.stores)


class KVBlockPool:
    """A fixed budget of block ids for one shard group (lowest-id-first)."""

    def __init__(self, gid: int, num_blocks: int):
        if num_blocks < 1:
            raise ValueError(f"group {gid}: num_blocks must be >= 1")
        self.gid = gid
        self.capacity = num_blocks
        self._free: List[int] = list(range(num_blocks))
        heapq.heapify(self._free)
        self._free_set = set(self._free)
        self.peak_in_use = 0

    @property
    def free(self) -> int:
        return len(self._free)

    @property
    def in_use(self) -> int:
        return self.capacity - len(self._free)

    def allocate(self, count: int) -> List[int]:
        if count > self.free:
            raise RuntimeError(
                f"KV block pool {self.gid} exhausted: need {count}, free {self.free}"
            )
        ids = [heapq.heappop(self._free) for _ in range(count)]
        self._free_set.difference_update(ids)
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return ids

    def release(self, ids: Sequence[int]) -> None:
        """Return block ids to the pool; every id is validated before any
        is pushed, so a bad release leaves the pool untouched."""
        seen = set()
        for b in ids:
            if not 0 <= b < self.capacity:
                raise RuntimeError(
                    f"KV block pool {self.gid}: block id {b} outside range({self.capacity})"
                )
            if b in self._free_set or b in seen:
                raise RuntimeError(
                    f"KV block pool {self.gid}: double free of block {b}"
                )
            seen.add(b)
        for b in ids:
            heapq.heappush(self._free, b)
        self._free_set.update(seen)


@dataclass(frozen=True)
class KVShardGroup:
    """One replication group of the cache: which ranks store which slots."""

    gid: int
    ranks: Tuple[int, ...]
    slots: Tuple[int, ...]


class ShardedKVCache:
    """Paged K/V storage sharded across a simulator's devices."""

    def __init__(
        self,
        sim,
        groups: Sequence[KVShardGroup],
        num_layers: int,
        heads_loc: int,
        head_dim: int,
        block_size: int,
        blocks_per_group: int,
        dtype: str = "float64",
        pool: Optional[ArrayPool] = None,
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.sim = sim
        self.groups = tuple(groups)
        self.num_layers = num_layers
        self.heads_loc = heads_loc
        self.head_dim = head_dim
        self.block_size = block_size
        self.dtype = np.dtype(dtype)
        self.pool = pool if pool is not None else ArrayPool()
        self.pools: Dict[int, KVBlockPool] = {
            g.gid: KVBlockPool(g.gid, blocks_per_group) for g in self.groups
        }
        self._group_of_slot: Dict[int, KVShardGroup] = {}
        for g in self.groups:
            for s in g.slots:
                if s in self._group_of_slot:
                    raise ValueError(f"slot {s} assigned to two shard groups")
                self._group_of_slot[s] = g
        #: (gid, block_id) -> per layer (k, v), each [R, n_loc, bs, d]
        self._storage: Dict[Tuple[int, int], List[Tuple]] = {}
        self._tables: Dict[int, List[int]] = {}  # slot -> block ids, in order
        self._lengths: Dict[int, int] = {}  # slot -> committed token count

    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return len(self._group_of_slot)

    def group_of(self, slot: int) -> KVShardGroup:
        return self._group_of_slot[slot]

    def blocks_needed(self, kv_positions: int) -> int:
        return -(-max(kv_positions, 1) // self.block_size)

    def blocks_of(self, slot: int) -> int:
        """Blocks currently held by a resident slot."""
        return len(self._tables[slot])

    def can_reserve(self, slot: int, kv_positions: int) -> bool:
        g = self.group_of(slot)
        return self.pools[g.gid].free >= self.blocks_needed(kv_positions)

    def bytes_per_rank_block(self) -> int:
        """Device bytes one block occupies on one rank (K+V, all layers)."""
        per_layer = 2 * self.heads_loc * self.block_size * self.head_dim
        return per_layer * self.num_layers * self.dtype.itemsize

    def per_device_capacity_bytes(self) -> int:
        """KV bytes a fully-used pool pins on each device of a group."""
        any_gid = self.groups[0].gid
        return self.pools[any_gid].capacity * self.bytes_per_rank_block()

    # ------------------------------------------------------------------
    def _charge_blocks(self, g: KVShardGroup, block_ids: Sequence[int]) -> None:
        """Back freshly allocated block ids with arrays and device bytes."""
        nbytes = self.bytes_per_rank_block()
        shape = (len(g.ranks), self.heads_loc, self.block_size, self.head_dim)
        for b in block_ids:
            for rank in g.ranks:
                self.sim.device(rank).memory.alloc(nbytes, tag=KV_MEMORY_TAG)
            self._storage[(g.gid, b)] = [
                (self.pool.acquire(shape, self.dtype), self.pool.acquire(shape, self.dtype))
                for _layer in range(self.num_layers)
            ]

    def reserve(self, slot: int, kv_positions: int) -> None:
        """Allocate (and charge) every block for ``kv_positions`` tokens.

        Under conservative reservation this is the sequence's whole
        footprint; the preemptive policy reserves just the known prefix and
        grows via :meth:`ensure_capacity`.
        """
        if slot in self._tables:
            raise RuntimeError(f"slot {slot} already reserved")
        g = self.group_of(slot)
        need = self.blocks_needed(kv_positions)
        block_ids = self.pools[g.gid].allocate(need)
        self._charge_blocks(g, block_ids)
        self._tables[slot] = block_ids
        self._lengths[slot] = 0

    def ensure_capacity(self, slot: int, kv_positions: int) -> bool:
        """Grow a slot's table to cover ``kv_positions``; False if the pool
        can't supply the extra blocks (caller decides whether to preempt)."""
        table = self._tables[slot]
        need = self.blocks_needed(kv_positions)
        if need <= len(table):
            return True
        g = self.group_of(slot)
        grow = need - len(table)
        if self.pools[g.gid].free < grow:
            return False
        block_ids = self.pools[g.gid].allocate(grow)
        self._charge_blocks(g, block_ids)
        table.extend(block_ids)
        return True

    def free(self, slot: int) -> None:
        """Evict a sequence: release its blocks and uncharge device memory."""
        g = self.group_of(slot)
        block_ids = self._tables.pop(slot)
        self._lengths.pop(slot)
        nbytes = self.bytes_per_rank_block()
        for b in block_ids:
            for k, v in self._storage.pop((g.gid, b)):
                self.pool.release(k)
                self.pool.release(v)
            for rank in g.ranks:
                self.sim.device(rank).memory.free(nbytes, tag=KV_MEMORY_TAG)
        self.pools[g.gid].release(block_ids)

    # ------------------------------------------------------------------
    def swap_out(self, slot: int, swap: HostSwapSpace) -> SwapTicket:
        """Spill a slot's K/V blocks to the host tier.

        The backing arrays move into the returned ticket untouched (no
        copy, bit-exact), device meters and pool ids are released, host
        bytes are charged, and the group's ranks pay the transfer time on
        the simulated clock.
        """
        g = self.group_of(slot)
        block_ids = self._tables.pop(slot)
        length = self._lengths.pop(slot)
        if not swap.can_hold(len(block_ids)):
            # put state back before failing: callers probe with can_hold
            self._tables[slot] = block_ids
            self._lengths[slot] = length
            raise RuntimeError(
                f"host swap space full: need {len(block_ids)} blocks, "
                f"holding {swap.blocks_held} of {swap.capacity_blocks}"
            )
        nbytes = self.bytes_per_rank_block()
        stores = []
        for b in block_ids:
            stores.append(self._storage.pop((g.gid, b)))
            for rank in g.ranks:
                self.sim.device(rank).memory.free(nbytes, tag=KV_MEMORY_TAG)
        self.pools[g.gid].release(block_ids)
        host_bytes = len(block_ids) * nbytes * len(g.ranks)
        swap.meter.alloc(host_bytes, tag=KV_SWAP_TAG)
        swap.blocks_held += len(block_ids)
        swap.peak_blocks = max(swap.peak_blocks, swap.blocks_held)
        swap.swap_out_count += 1
        swap.bytes_out += host_bytes
        dt = swap.transfer_s(len(block_ids))
        self.sim.sync(g.ranks)
        self.sim.advance(g.ranks, dt)
        return SwapTicket(
            slot=slot, gid=g.gid, stores=stores, length=length, num_ranks=len(g.ranks)
        )

    def can_swap_in(self, slot: int, ticket: SwapTicket) -> bool:
        g = self.group_of(slot)
        return g.gid == ticket.gid and self.pools[g.gid].free >= ticket.num_blocks

    def swap_in(self, slot: int, ticket: SwapTicket, swap: HostSwapSpace) -> None:
        """Restore a swapped-out sequence into ``slot`` (same shard group).

        Reverses :meth:`swap_out`: fresh block ids, the ticket's arrays
        re-attached verbatim, device bytes re-charged, host bytes freed,
        transfer time paid again.
        """
        if slot in self._tables:
            raise RuntimeError(f"slot {slot} already reserved")
        g = self.group_of(slot)
        if g.gid != ticket.gid:
            raise RuntimeError(
                f"swap-in group mismatch: ticket from group {ticket.gid}, "
                f"slot {slot} lives in group {g.gid} (per-rank shards are "
                "only valid on the ranks that produced them)"
            )
        block_ids = self.pools[g.gid].allocate(ticket.num_blocks)
        nbytes = self.bytes_per_rank_block()
        for b, store in zip(block_ids, ticket.stores):
            self._storage[(g.gid, b)] = store
            for rank in g.ranks:
                self.sim.device(rank).memory.alloc(nbytes, tag=KV_MEMORY_TAG)
        self._tables[slot] = block_ids
        self._lengths[slot] = ticket.length
        host_bytes = ticket.num_blocks * nbytes * len(g.ranks)
        swap.meter.free(host_bytes, tag=KV_SWAP_TAG)
        swap.blocks_held -= ticket.num_blocks
        swap.swap_in_count += 1
        swap.bytes_in += host_bytes
        dt = swap.transfer_s(ticket.num_blocks)
        self.sim.sync(g.ranks)
        self.sim.advance(g.ranks, dt)

    def discard_ticket(self, ticket: SwapTicket, swap: HostSwapSpace) -> None:
        """Drop a swapped-out sequence without restoring it (deadline abort):
        arrays go back to the free-list, host bytes are uncharged, no
        transfer is paid (dropping is free)."""
        for store in ticket.stores:
            for k, v in store:
                self.pool.release(k)
                self.pool.release(v)
        host_bytes = ticket.num_blocks * self.bytes_per_rank_block() * ticket.num_ranks
        swap.meter.free(host_bytes, tag=KV_SWAP_TAG)
        swap.blocks_held -= ticket.num_blocks
        ticket.stores.clear()

    # ------------------------------------------------------------------
    def write(self, slot: int, layer: int, pos: int, k_vec, v_vec) -> None:
        """Store one token's K/V (``[R, n_loc, d]``, all ranks of the slot's
        group in ``group.ranks`` order) at cache position ``pos``."""
        g = self.group_of(slot)
        b, off = divmod(pos, self.block_size)
        k_arr, v_arr = self._storage[(g.gid, self._tables[slot][b])][layer]
        k_arr[:, :, off, :] = k_vec
        v_arr[:, :, off, :] = v_vec

    def gather(self, slot: int, layer: int, upto: int):
        """K/V for positions ``[0, upto)`` as ``[R, n_loc, upto, d]`` arrays."""
        g = self.group_of(slot)
        table = self._tables[slot]
        bs = self.block_size
        nblocks = -(-upto // bs)
        if nblocks == 1:
            k_arr, v_arr = self._storage[(g.gid, table[0])][layer]
            return k_arr[:, :, :upto, :], v_arr[:, :, :upto, :]
        ks, vs = [], []
        for b in range(nblocks):
            k_arr, v_arr = self._storage[(g.gid, table[b])][layer]
            hi = min(bs, upto - b * bs)
            ks.append(k_arr[:, :, :hi, :])
            vs.append(v_arr[:, :, :hi, :])
        return np.concatenate(ks, axis=2), np.concatenate(vs, axis=2)

    def commit(self, slot: int) -> None:
        """Advance the committed length after a token's K/V is fully written."""
        self._lengths[slot] += 1

    def length(self, slot: int) -> int:
        return self._lengths[slot]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "block_size": self.block_size,
            "blocks_per_group": self.pools[self.groups[0].gid].capacity,
            "num_groups": len(self.groups),
            "peak_blocks_in_use": {
                str(gid): p.peak_in_use for gid, p in sorted(self.pools.items())
            },
            "bytes_per_rank_block": self.bytes_per_rank_block(),
            "per_device_capacity_bytes": self.per_device_capacity_bytes(),
        }
