"""Cell→shard placement for the sharded serving tier.

A :class:`Placement` is a consistent-hash ring over cube cells: each
shard contributes ``vnodes`` virtual points hashed with BLAKE2b (a
*keyed, stable* hash — Python's built-in ``hash()`` is salted per
process and would place the router and its workers on different
rings), and a cell lands on the first shard clockwise from its own
hash.  Consistent hashing keeps the assignment stable when the shard
count changes (only ~1/N of cells move) and gives every cell a
deterministic *replica order* — :meth:`Placement.fallback_order` — the
router walks when the owning worker is down.

The module also hosts :func:`shard_transform`, the post-load hook a
shard worker applies to a freshly loaded cube: it slices the local
sample store down to the cells this shard owns (foreign iceberg cells
degrade to the replicated global sample) and pins the fallback policy
so a shard never raw-scans or re-certifies a cell it does not own.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.tabula import Tabula

__all__ = [
    "Placement",
    "cell_bytes",
    "shard_transform",
    "stable_hash",
]


def stable_hash(data: bytes) -> int:
    """A process-independent 64-bit hash (BLAKE2b, 8-byte digest)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def cell_bytes(cell: object) -> bytes:
    """The canonical byte encoding of a cube cell for placement.

    Cells are tuples of ``Optional[str]`` coordinates; ``repr`` is
    stable across processes and Python versions for that shape.
    """
    return repr(cell).encode("utf-8")


class Placement:
    """Consistent-hash ring mapping cube cells onto ``num_shards`` workers."""

    def __init__(self, num_shards: int, vnodes: int = 64) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.num_shards = num_shards
        self.vnodes = vnodes
        ring: List[Tuple[int, int]] = []
        for shard in range(num_shards):
            for vnode in range(vnodes):
                point = stable_hash(f"shard:{shard}:vnode:{vnode}".encode("utf-8"))
                ring.append((point, shard))
        ring.sort()
        self._ring = ring
        self._points = [point for point, _ in ring]

    def shard_of(self, cell: object) -> int:
        """The shard owning ``cell`` (first ring point at/after its hash)."""
        index = bisect.bisect_right(self._points, stable_hash(cell_bytes(cell)))
        return self._ring[index % len(self._ring)][1]

    def fallback_order(self, cell: object) -> List[int]:
        """Every shard in ring order starting from ``cell``'s owner.

        ``fallback_order(cell)[0] == shard_of(cell)``; the rest is the
        deterministic replica order the router tries when the owner is
        unavailable.
        """
        start = bisect.bisect_right(self._points, stable_hash(cell_bytes(cell)))
        order: List[int] = []
        seen: set = set()
        for step in range(len(self._ring)):
            shard = self._ring[(start + step) % len(self._ring)][1]
            if shard not in seen:
                seen.add(shard)
                order.append(shard)
                if len(order) == self.num_shards:
                    break
        return order

    def spread(self, cells: Iterable[object]) -> Dict[int, int]:
        """Per-shard cell counts for ``cells`` (balance diagnostics)."""
        counts: Dict[int, int] = {shard: 0 for shard in range(self.num_shards)}
        for cell in cells:
            counts[self.shard_of(cell)] += 1
        return counts


def shard_transform(
    placement: Placement, shard_id: Optional[int]
) -> Callable[[Tabula], Tabula]:
    """Post-load hook slicing a freshly loaded cube to one shard.

    Applied by :class:`~repro.serving.gateway.ServingGateway` right
    after every (re)load, so hot reload re-slices too.  One policy pin
    rides along with the slice: ``degraded_rebind=False`` — a shard must
    never raw-scan a cell it does not own back to CERTIFIED;
    re-certification happens only on the owning worker. A foreign cell
    therefore answers from the replicated global sample (DOWNGRADED), so
    a failover answer stays cheap and honestly labelled.

    ``shard_id=None`` yields the *router's* slice: it owns nothing, so
    every iceberg cell degrades to the global sample — the universal
    last rung when all workers are unreachable.
    """

    def apply(tabula: Tabula) -> Tabula:
        sliced = tabula.store.shard_slice(placement.shard_of, shard_id)
        tabula.config.degraded_rebind = False
        tabula.attach_store(sliced)
        return tabula

    return apply
