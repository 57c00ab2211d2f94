"""Memory request scheduling policies.

The paper's controller uses FR-FCFS with a *cap on column-over-row
reordering* (FR-FCFS+Cap, Mutlu & Moscibroda MICRO'07) of four: row-buffer
hits may be served ahead of older row-buffer misses, but at most ``cap``
times in a row per bank, which bounds the starvation a row-hit-friendly
(e.g. streaming or hammering) thread can inflict on others.

Two additional policies — plain FR-FCFS and strict FCFS — are provided for
ablation studies and tests.

Every policy has two views of one ordering.  :meth:`BaseScheduler.
prioritize` is the plain, list-based reference: every candidate, highest
priority first.  :meth:`BaseScheduler.iter_prioritized` is what the
controller consumes each cycle: only the first decision the reference
offers for each bank with queued work, read from the queue's per-bank
index.  The controller tries at most one command per bank per cycle (a
bank that refused one command refuses the rest, and a served request ends
the cycle), so the other decisions are never attempted, and a scan costs
O(banks) instead of O(queue).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.controller.queues import RequestQueue
from repro.controller.request import MemoryRequest
from repro.dram.device import Channel

#: Sort-key offset placing an FR-FCFS+Cap miss after every row hit (arrival
#: serials stay far below it).
_MISS = 1 << 48

#: One bank's offer: ``(sort key, request, is_row_hit)``.
Offer = Tuple[object, MemoryRequest, bool]


@dataclass(slots=True)
class SchedulerDecision:
    """The request chosen by the scheduler, with the reason recorded."""

    request: MemoryRequest
    is_row_hit: bool
    reason: str


def _age(request: MemoryRequest) -> Tuple[int, int]:
    return (request.arrival_cycle, request.request_id)


def _open_row(channel: Channel, bank_key: tuple) -> Optional[int]:
    _, rank, bank_group, bank = bank_key
    return channel.ranks[rank].banks[bank_group][bank].open_row


class BaseScheduler:
    """Interface shared by all scheduling policies.

    A policy defines :meth:`prioritize`, the reference ordering, and
    :meth:`bank_offers`, its first decision for each bank of a queue.
    """

    name = "base"
    hit_reason = "row-hit"
    miss_reason = "oldest-miss"

    def prioritize(self, candidates: List[MemoryRequest], channel: Channel,
                   cycle: int) -> List[SchedulerDecision]:
        """Every candidate, in descending priority (the reference)."""

        raise NotImplementedError

    def bank_offers(self, queue: RequestQueue,
                    channel: Channel) -> List[Offer]:
        """One offer per bank of ``queue``: the bank's first decision in
        :meth:`prioritize` order, keyed so that sorting the offers by key
        restores that order.  Requests without a coordinate have no bank;
        each is its own offer.
        """

        raise NotImplementedError

    def iter_prioritized(self, queue: RequestQueue, channel: Channel,
                         cycle: int) -> Iterator[SchedulerDecision]:
        """Yield one decision per bank with queued work, by priority.

        The controller stops consuming after the first issued command (at
        most ``MAX_SCHEDULE_ATTEMPTS`` failures), so decisions are built
        only as they are consumed.
        """

        offers = self.bank_offers(queue, channel)
        offers.sort(key=itemgetter(0))
        hit_reason, miss_reason = self.hit_reason, self.miss_reason
        for _, request, is_row_hit in offers:
            yield SchedulerDecision(request, is_row_hit,
                                    hit_reason if is_row_hit else miss_reason)

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


class FcfsScheduler(BaseScheduler):
    """Strict first-come-first-served scheduling (oldest request wins)."""

    name = "fcfs"
    hit_reason = miss_reason = "fcfs-oldest"

    def prioritize(self, candidates: List[MemoryRequest], channel: Channel,
                   cycle: int) -> List[SchedulerDecision]:
        ordered = sorted(candidates, key=_age)
        return [
            SchedulerDecision(req, _is_row_hit(req, channel), "fcfs-oldest")
            for req in ordered
        ]

    def bank_offers(self, queue: RequestQueue,
                    channel: Channel) -> List[Offer]:
        offers: List[Offer] = []
        for key, bucket in queue.by_bank.items():
            if key is None:
                offers.extend((_age(req), req, False) for _, _, req in bucket)
                continue
            _, row, req = min(bucket, key=lambda entry: _age(entry[2]))
            offers.append((_age(req), req, row == _open_row(channel, key)))
        return offers


class FrFcfsScheduler(BaseScheduler):
    """First-ready FCFS: row-buffer hits first, then the oldest request."""

    name = "frfcfs"

    def prioritize(self, candidates: List[MemoryRequest], channel: Channel,
                   cycle: int) -> List[SchedulerDecision]:
        hits: List[MemoryRequest] = []
        misses: List[MemoryRequest] = []
        for req in candidates:
            (hits if _is_row_hit(req, channel) else misses).append(req)
        hits.sort(key=_age)
        misses.sort(key=_age)
        return [
            SchedulerDecision(req, True, "row-hit") for req in hits
        ] + [
            SchedulerDecision(req, False, "oldest-miss") for req in misses
        ]

    def bank_offers(self, queue: RequestQueue,
                    channel: Channel) -> List[Offer]:
        offers: List[Offer] = []
        for key, bucket in queue.by_bank.items():
            if key is None:
                offers.extend(((1,) + _age(req), req, False)
                              for _, _, req in bucket)
                continue
            open_row = _open_row(channel, key)
            hits = [req for _, row, req in bucket if row == open_row]
            if hits:
                req = min(hits, key=_age)
                offers.append(((0,) + _age(req), req, True))
            else:
                req = min((req for _, _, req in bucket), key=_age)
                offers.append(((1,) + _age(req), req, False))
        return offers


class FrFcfsCapScheduler(BaseScheduler):
    """FR-FCFS with a per-bank cap on column-over-row reordering.

    A row-buffer hit may bypass an older row-buffer miss to the same bank at
    most ``cap`` consecutive times; after that the oldest miss is scheduled
    even though it needs a PRE+ACT.  This is the policy used throughout the
    paper's evaluation (Cap = 4).  Age is arrival order in the queue.
    """

    name = "frfcfs_cap"

    def __init__(self, cap: int = 4) -> None:
        if cap < 1:
            raise ValueError("cap must be at least 1")
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

    def bank_offers(self, queue: RequestQueue,
                    channel: Channel) -> List[Offer]:
        """A bank offers its oldest request if that is a hit, else its
        oldest hit unless the bank is capped, else its oldest miss.  A
        capped hit is never a bank's first decision: the older miss that
        caps it comes first.  Hits sort by arrival, then misses.
        """

        offers: List[Offer] = []
        ranks = channel.ranks
        caps = self._hits_over_misses
        cap = self.cap
        for key, bucket in queue.by_bank.items():
            if key is None:
                offers.extend((serial + _MISS, req, False)
                              for serial, _, req in bucket)
                continue
            open_row = ranks[key[1]].banks[key[2]][key[3]].open_row
            serial, row, req = bucket[0]
            if open_row is not None:
                if row == open_row:
                    offers.append((serial, req, True))
                    continue
                if caps.get(key, 0) < cap:
                    for hit_serial, hit_row, hit in bucket:
                        if hit_row == open_row:
                            offers.append((hit_serial, hit, True))
                            break
                    else:
                        offers.append((serial + _MISS, req, False))
                    continue
            offers.append((serial + _MISS, req, False))
        return offers

    def notify_served(self, decision: SchedulerDecision) -> None:
        coord = decision.request.coordinate
        if coord is None:
            return
        key = coord.bank_key
        if decision.is_row_hit:
            self._hits_over_misses[key] = self._hits_over_misses.get(key, 0) + 1
        else:
            # A miss was served: the bank's reorder budget resets.
            self._hits_over_misses[key] = 0


def make_scheduler(name: str, cap: int = 4) -> BaseScheduler:
    """Factory used by :class:`repro.sim.config.SystemConfig`."""

    normalized = name.lower()
    if normalized in ("frfcfs_cap", "frfcfs+cap", "fr-fcfs+cap"):
        return FrFcfsCapScheduler(cap=cap)
    if normalized in ("frfcfs", "fr-fcfs"):
        return FrFcfsScheduler()
    if normalized == "fcfs":
        return FcfsScheduler()
    raise ValueError(f"unknown scheduler policy: {name!r}")
