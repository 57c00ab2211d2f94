"""Miss-status-holding registers (MSHRs) with per-thread quotas.

The LLC tracks outstanding misses in a shared pool of MSHRs.  BreakHammer's
throttling lever (paper §4.3) is exactly this pool: a suspect thread's quota
``Q_i`` is reduced so it can keep at most ``Q_i`` outstanding LLC misses,
while accesses that *hit* an existing MSHR (secondary misses) are still
allowed — the suspect can keep using data that is already being fetched.

The :class:`MshrFile` therefore distinguishes:

* *primary miss* — needs a free MSHR **and** headroom in the thread's quota;
* *secondary miss* — the line is already being fetched; always allowed and
  merged into the existing entry.

Per-thread occupancy is tracked with maintained counters (incremented on
primary allocation, decremented on release) so that :meth:`can_allocate` and
:meth:`allocate` are O(1) instead of scanning every entry — the scan was the
hottest line in attack workloads that keep the pool full.

Non-cacheable accesses (``clflush``-style attacker traffic) carry an explicit
:attr:`MshrEntry.uncached` flag.  A cached access that merges into an
uncached entry clears the flag, so the eventual fill *is* installed in the
LLC — exactly one requester asking for a cacheable copy is enough.

:attr:`MshrFile.version` counts the changes that can turn a refused access
into an accepted one: primary allocations (a new entry turns a later miss
to its line into a merge), releases (they free capacity and quota, and
precede the only fills that bring a line into the LLC) and quota changes.
The fast engine lets a refused core sleep until it moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(slots=True)
class MshrEntry:
    """One outstanding LLC miss."""

    line_address: int
    thread_id: Optional[int]
    allocated_cycle: int
    is_write: bool = False
    merged_accesses: int = 0
    #: True while every access merged into this entry bypassed the cache;
    #: the fill is only skipped when no cacheable requester is waiting.
    uncached: bool = False
    waiters: List[object] = field(default_factory=list)


class MshrFile:
    """A bounded pool of MSHRs with per-thread allocation quotas.

    :attr:`version` moves on every primary allocation, every release and
    every quota change, the only changes that can let a refused access
    through on a retry; the fast engine keys a refused core's sleep on it.
    """

    def __init__(self, total_entries: int = 64,
                 num_threads: int = 4) -> None:
        if total_entries <= 0:
            raise ValueError("MSHR file must have at least one entry")
        self.total_entries = total_entries
        self.num_threads = num_threads
        self._entries: Dict[int, MshrEntry] = {}
        # Per-thread quota; defaults to the full pool (no throttling).
        self._quota: Dict[int, int] = {
            thread: total_entries for thread in range(num_threads)
        }
        # Maintained per-thread occupancy so quota checks are O(1).
        self._outstanding: Dict[int, int] = {
            thread: 0 for thread in range(num_threads)
        }
        self.stats_allocations = 0
        self.stats_merges = 0
        self.stats_quota_rejections = 0
        self.stats_capacity_rejections = 0
        self.peak_occupancy = 0
        #: Bumped by every primary allocation, release and quota change
        #: (merges change nothing a refused access depends on).
        self.version = 0

    # ------------------------------------------------------------------ #
    # Quota management (driven by BreakHammer's throttler)
    # ------------------------------------------------------------------ #
    def quota_for(self, thread_id: int) -> int:
        return self._quota.get(thread_id, self.total_entries)

    def set_quota(self, thread_id: int, quota: int) -> None:
        """Set a thread's MSHR quota (clamped to ``[0, total_entries]``)."""

        quota = max(0, min(self.total_entries, quota))
        if self._quota.get(thread_id) != quota:
            self._quota[thread_id] = quota
            self.version += 1

    def reset_quota(self, thread_id: int) -> None:
        self.set_quota(thread_id, self.total_entries)

    def reset_all_quotas(self) -> None:
        for thread in list(self._quota):
            self.set_quota(thread, self.total_entries)

    # ------------------------------------------------------------------ #
    # Occupancy queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def free_entries(self) -> int:
        return self.total_entries - len(self._entries)

    def outstanding_for(self, thread_id: Optional[int]) -> int:
        if thread_id is None:
            return 0
        return self._outstanding.get(thread_id, 0)

    def lookup(self, line_address: int) -> Optional[MshrEntry]:
        return self._entries.get(line_address)

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def can_allocate(self, thread_id: Optional[int]) -> bool:
        """Check quota and capacity for a *primary* miss by ``thread_id``."""

        if self.free_entries <= 0:
            return False
        if thread_id is None:
            return True
        return self.outstanding_for(thread_id) < self.quota_for(thread_id)

    def allocate(self, line_address: int, thread_id: Optional[int],
                 cycle: int, is_write: bool = False,
                 uncached: bool = False) -> Optional[MshrEntry]:
        """Allocate an MSHR for a primary miss, or merge a secondary miss.

        Returns the entry on success (new or merged).  Returns ``None`` if
        the miss is primary and either the pool is full or the thread's quota
        is exhausted — the caller must retry later (this is how throttling
        slows a suspect thread down).

        ``uncached`` marks accesses that bypass the LLC.  A merged entry
        stays uncached only while *all* of its accesses are uncached; one
        cacheable requester is enough to make the fill install the line.
        """

        existing = self._entries.get(line_address)
        if existing is not None:
            existing.merged_accesses += 1
            existing.is_write = existing.is_write or is_write
            existing.uncached = existing.uncached and uncached
            self.stats_merges += 1
            return existing

        if self.free_entries <= 0:
            self.stats_capacity_rejections += 1
            return None
        if thread_id is not None and (
            self.outstanding_for(thread_id) >= self.quota_for(thread_id)
        ):
            self.stats_quota_rejections += 1
            return None

        entry = MshrEntry(
            line_address=line_address,
            thread_id=thread_id,
            allocated_cycle=cycle,
            is_write=is_write,
            uncached=uncached,
        )
        self._entries[line_address] = entry
        if thread_id is not None:
            self._outstanding[thread_id] = (
                self._outstanding.get(thread_id, 0) + 1
            )
        self.stats_allocations += 1
        self.version += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        return entry

    def release(self, line_address: int) -> Optional[MshrEntry]:
        """Free the MSHR for ``line_address`` (when the fill returns)."""

        self.version += 1
        entry = self._entries.pop(line_address, None)
        if entry is not None and entry.thread_id is not None:
            self._outstanding[entry.thread_id] = (
                self._outstanding.get(entry.thread_id, 1) - 1
            )
        return entry

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        return {
            "total_entries": self.total_entries,
            "occupied": len(self._entries),
            "peak_occupancy": self.peak_occupancy,
            "allocations": self.stats_allocations,
            "merges": self.stats_merges,
            "quota_rejections": self.stats_quota_rejections,
            "capacity_rejections": self.stats_capacity_rejections,
            "quotas": dict(self._quota),
        }
