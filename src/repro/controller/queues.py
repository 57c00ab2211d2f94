"""Bounded request queues used by the memory controller.

The paper's configuration (Table 1) uses 64-entry read and write request
queues.  :class:`RequestQueue` is a small bounded container that preserves
arrival order (needed for the "first-come" part of FR-FCFS) and indexes its
requests by bank, so a scheduler can pick one request per bank without
walking the whole queue.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.controller.request import MemoryRequest


class RequestQueue:
    """A bounded, arrival-ordered queue of memory requests."""

    def __init__(self, capacity: int = 64, name: str = "queue") -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._entries: List[MemoryRequest] = []
        self.enqueued_total = 0
        self.rejected_total = 0
        self.peak_occupancy = 0
        # Mutation version: bumped on every successful push and every
        # remove.  Consumers (the batch engine's scan predictions, the
        # controller's failed-scan memo) compare it to prove the queue —
        # and hence the scheduler's candidate sequence — is unchanged.
        self.version = 0
        # Optional mutation journal: when set (by the batch engine) every
        # push/remove is appended as ``(is_push, request)`` so array
        # mirrors can be maintained incrementally.
        self.journal: Optional[List] = None
        #: Per-bank index: ``bank_key`` -> that bank's entries in arrival
        #: order, each ``(arrival serial, row, request)``; the serial is
        #: ``enqueued_total`` at the push, so it orders the whole queue.
        #: Requests without a coordinate share the key ``None`` (row
        #: ``None``).  A bank whose last request leaves is dropped, so the
        #: index holds exactly the banks with queued work.  A request's
        #: coordinate must not change while it is queued.
        self.by_bank: Dict[Optional[tuple], List[Tuple]] = {}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MemoryRequest]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def occupancy(self) -> float:
        return len(self._entries) / self.capacity

    # ------------------------------------------------------------------ #
    def push(self, request: MemoryRequest) -> bool:
        """Append ``request`` if there is room; return ``False`` otherwise."""

        if self.is_full:
            self.rejected_total += 1
            return False
        self._entries.append(request)
        self.enqueued_total += 1
        self.version += 1
        if self.journal is not None:
            self.journal.append((True, request))
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        coord = request.coordinate
        if coord is None:
            key, row = None, None
        else:
            key, row = coord.bank_key, coord.row
        entry = (self.enqueued_total, row, request)
        bucket = self.by_bank.get(key)
        if bucket is None:
            self.by_bank[key] = [entry]
        else:
            bucket.append(entry)
        return True

    def remove(self, request: MemoryRequest) -> None:
        """Remove a specific request (after it has been scheduled)."""

        self._entries.remove(request)
        self.version += 1
        if self.journal is not None:
            self.journal.append((False, request))
        coord = request.coordinate
        key = None if coord is None else coord.bank_key
        bucket = self.by_bank[key]
        for index, entry in enumerate(bucket):
            if entry[2] is request:
                del bucket[index]
                break
        if not bucket:
            del self.by_bank[key]

    def oldest(self) -> Optional[MemoryRequest]:
        """Return the oldest request without removing it."""

        return self._entries[0] if self._entries else None

    # ------------------------------------------------------------------ #
    def for_bank(self, bank_key: tuple) -> List[MemoryRequest]:
        """All requests whose decoded coordinate targets ``bank_key``."""

        return [entry[2] for entry in self.by_bank.get(bank_key, ())]

    def threads_present(self) -> Iterable[int]:
        """Distinct thread ids currently waiting in the queue."""

        return {
            req.thread_id for req in self._entries if req.thread_id is not None
        }

    def count_for_thread(self, thread_id: int) -> int:
        return sum(1 for req in self._entries if req.thread_id == thread_id)
