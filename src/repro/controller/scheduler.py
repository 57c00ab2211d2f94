"""Memory request scheduling.

The paper's controller uses FR-FCFS with a *cap on column-over-row
reordering* (FR-FCFS+Cap, Mutlu & Moscibroda MICRO'07) of four: row-buffer
hits may be served ahead of older row-buffer misses, but at most ``cap``
times in a row per bank, which bounds the starvation a row-hit-friendly
(e.g. streaming or hammering) thread can inflict on others.  It is the
one policy the simulated controller runs.

The policy has two views of one ordering.  :meth:`BaseScheduler.
prioritize` is the plain, list-based reference: every candidate, highest
priority first.  :meth:`BaseScheduler.iter_prioritized` is what the
controller consumes each cycle: only the first decision the reference
offers for each bank with queued work (the bank's :class:`Offer`), read
from the queue's per-bank index.  The controller tries at most one command
per bank per cycle (a bank that refused one command refuses the rest, and
a served request ends the cycle), so the other decisions are never
attempted, and a scan costs O(banks) instead of O(queue).  A bank's offer
depends only on its queued requests, its open row and its cap state, so
the queue keeps the offers across scans and a scan rebuilds only the banks
on which one of those changed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set

from repro.controller.queues import RequestQueue
from repro.controller.request import MemoryRequest
from repro.dram.device import Channel

#: The paper's FR-FCFS+Cap cap (Table 1), the default of
#: :class:`FrFcfsCapScheduler`.
CAP = 4

#: Sort-key offset placing an FR-FCFS+Cap miss after every row hit (arrival
#: serials stay far below it).
_MISS = 1 << 48

_SORT_KEY = itemgetter(0)


@dataclass(slots=True)
class SchedulerDecision:
    """The request chosen by the scheduler, with the reason recorded."""

    request: MemoryRequest
    is_row_hit: bool
    reason: str


class Offer(NamedTuple):
    """One bank's first decision in :meth:`BaseScheduler.prioritize` order.

    ``key`` sorts the offers of a queue into that order.  The controller
    unpacks offers as plain tuples and builds a :class:`SchedulerDecision`
    only for the row hit it serves.
    """

    key: object
    request: MemoryRequest
    is_row_hit: bool
    reason: str


class BaseScheduler:
    """Interface of a scheduling policy and its cached per-bank scan
    (:class:`FrFcfsCapScheduler` is the one policy).

    A policy defines :meth:`prioritize`, the reference ordering, and
    :meth:`bank_offers`, its first decision for one bank of a queue.
    """

    name = "base"
    hit_reason = "row-hit"
    miss_reason = "oldest-miss"

    def __init__(self) -> None:
        # The dirty-bank sets of the queues whose offers this scheduler
        # caches; a policy with per-bank state marks a bank there when a
        # change of that state can change the bank's offer.
        self._watchers: List[Set[tuple]] = []

    def prioritize(self, candidates: List[MemoryRequest], channel: Channel,
                   cycle: int) -> List[SchedulerDecision]:
        """Every candidate, in descending priority (the reference)."""

        raise NotImplementedError

    def bank_offers(self, key: Optional[tuple], bucket: List[tuple],
                    channel: Channel) -> Sequence[Offer]:
        """The offers of one bank: ``bucket`` is its entry of the queue's
        per-bank index, ``key`` its ``bank_key``.

        A bank has one offer, its first decision in :meth:`prioritize`
        order, keyed so that sorting a queue's offers by key restores that
        order; no two offers of a queue share a key.  Requests without a
        coordinate (``key`` is ``None``) have no bank; each is its own
        offer.
        """

        raise NotImplementedError

    def iter_prioritized(self, queue: RequestQueue, channel: Channel,
                         cycle: int) -> Iterator[Offer]:
        """Iterate one offer per bank with queued work, by priority.

        The offers live in the queue between scans, in priority order; a
        scan rebuilds those of the banks marked dirty since the last one
        and moves each to its place (so the iterator is valid until the
        queue's next scan).  A push or remove marks its bank, the channel marks
        a bank when an ACT, PRE or PREA issues to it (whoever issues it:
        requests, refreshes or preventive actions), and the scheduler marks
        a bank whose cap state changes.  A queue first scanned here, or
        last scanned by another scheduler or on another channel, is
        subscribed to those marks and rebuilt whole (the previous ones may
        go on marking it, which only costs rebuilds).
        """

        if queue.offer_source != (self, channel):
            self._adopt(queue, channel)
        dirty = queue.dirty_banks
        ranked = queue.ranked_offers
        if dirty:
            offers = queue.offers
            by_bank = queue.by_bank
            for key in dirty:
                for offer in offers.pop(key, ()):
                    del ranked[bisect_left(ranked, offer[0], key=_SORT_KEY)]
                bucket = by_bank.get(key)
                if bucket is not None:
                    offers[key] = rebuilt = self.bank_offers(key, bucket,
                                                             channel)
                    for offer in rebuilt:
                        insort(ranked, offer, key=_SORT_KEY)
            dirty.clear()
        return iter(ranked)

    def _adopt(self, queue: RequestQueue, channel: Channel) -> None:
        """Rebuild ``queue``'s offer cache for this scheduler and
        ``channel``, which mark its dirty banks from now on."""

        dirty = queue.dirty_banks
        self._watchers.append(dirty)
        channel.row_watchers.append(dirty)
        queue.offer_source = (self, channel)
        queue.offers.clear()
        queue.ranked_offers = []
        dirty.update(queue.by_bank)

    def _mark(self, key: tuple) -> None:
        """Mark bank ``key`` dirty in every queue whose offers are cached."""

        for dirty in self._watchers:
            dirty.add(key)

    def choose(self, candidates: List[MemoryRequest], channel: Channel,
               cycle: int) -> Optional[SchedulerDecision]:
        """The single highest-priority candidate (convenience for tests)."""

        ordered = self.prioritize(candidates, channel, cycle)
        return ordered[0] if ordered else None

    def notify_served(self, decision: SchedulerDecision) -> None:
        """Hook invoked when the chosen request's column command issues."""


def _is_row_hit(request: MemoryRequest, channel: Channel) -> bool:
    coord = request.coordinate
    if coord is None:
        return False
    return channel.bank(coord.rank, coord.bank_group, coord.bank).is_open(
        coord.row
    )


class FrFcfsCapScheduler(BaseScheduler):
    """FR-FCFS with a per-bank cap on column-over-row reordering.

    A row-buffer hit may bypass an older row-buffer miss to the same bank at
    most ``cap`` consecutive times; after that the oldest miss is scheduled
    even though it needs a PRE+ACT.  This is the policy used throughout the
    paper's evaluation (Cap = 4).  Age is arrival order in the queue.
    """

    name = "frfcfs_cap"

    def __init__(self, cap: int = CAP) -> None:
        if cap < 1:
            raise ValueError("cap must be at least 1")
        super().__init__()
        self.cap = cap
        self._hits_over_misses: Dict[tuple, int] = {}

    def _capped(self, bank_key: tuple) -> bool:
        return self._hits_over_misses.get(bank_key, 0) >= self.cap

    def prioritize(self, candidates: List[MemoryRequest], channel: Channel,
                   cycle: int) -> List[SchedulerDecision]:
        """Uncapped hits by age, then misses by age, then capped hits.

        ``candidates`` are in arrival order.  A hit is capped when an older
        miss to its bank is waiting and the bank has served ``cap`` hits.
        """

        hits: List[MemoryRequest] = []
        misses: List[MemoryRequest] = []
        capped: List[MemoryRequest] = []
        banks_with_miss = set()
        for req in candidates:
            if not _is_row_hit(req, channel):
                misses.append(req)
                if req.coordinate is not None:
                    banks_with_miss.add(req.coordinate.bank_key)
                continue
            key = req.coordinate.bank_key
            if key in banks_with_miss and self._capped(key):
                capped.append(req)
            else:
                hits.append(req)
        return (
            [SchedulerDecision(req, True, "row-hit") for req in hits]
            + [SchedulerDecision(req, False, "oldest-miss") for req in misses]
            + [SchedulerDecision(req, True, "capped-hit") for req in capped]
        )

    def bank_offers(self, key: Optional[tuple], bucket: List[tuple],
                    channel: Channel) -> Sequence[Offer]:
        """A bank offers its oldest request if that is a hit, else its
        oldest hit unless the bank is capped, else its oldest miss.  A
        capped hit is never a bank's first decision: the older miss that
        caps it comes first.  Hits sort by arrival, then misses.
        """

        if key is None:
            return [Offer(serial + _MISS, req, False, self.miss_reason)
                    for serial, _, req in bucket]
        open_row = channel.ranks[key[1]].banks[key[2]][key[3]].open_row
        serial, row, req = bucket[0]
        if open_row is not None:
            if row == open_row:
                return (Offer(serial, req, True, self.hit_reason),)
            if not self._capped(key):
                for hit_serial, hit_row, hit in bucket:
                    if hit_row == open_row:
                        return (Offer(hit_serial, hit, True,
                                      self.hit_reason),)
        return (Offer(serial + _MISS, req, False, self.miss_reason),)

    def notify_served(self, decision: SchedulerDecision) -> None:
        coord = decision.request.coordinate
        if coord is None:
            return
        key = coord.bank_key
        capped = self._capped(key)
        if decision.is_row_hit:
            self._hits_over_misses[key] = self._hits_over_misses.get(key, 0) + 1
        else:
            # A miss was served: the bank's reorder budget resets.
            self._hits_over_misses[key] = 0
        if self._capped(key) != capped:
            self._mark(key)

