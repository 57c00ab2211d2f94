"""Tests for the request queue and the FR-FCFS+Cap scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.controller import MemoryController
from repro.controller.queues import RequestQueue
from repro.controller.request import (
    MemoryRequest,
    RequestType,
    read_request,
    write_request,
)
from repro.controller.scheduler import FrFcfsCapScheduler, SchedulerDecision
from repro.dram.address import AddressMapper, MappingScheme
from repro.dram.commands import Command, CommandType
from repro.dram.config import DeviceConfig
from repro.dram.device import Channel


class TestRequestQueue:
    def test_push_and_capacity(self):
        queue = RequestQueue(capacity=2)
        assert queue.push(read_request(0))
        assert queue.push(read_request(64))
        assert queue.is_full
        assert not queue.push(read_request(128))
        assert queue.rejected_total == 1
        assert queue.peak_occupancy == 2

    def test_oldest_preserves_arrival_order(self):
        queue = RequestQueue()
        first = read_request(0, arrival_cycle=1)
        second = read_request(64, arrival_cycle=2)
        queue.push(first)
        queue.push(second)
        assert queue.oldest() is first

    def test_remove(self):
        queue = RequestQueue()
        req = read_request(0)
        queue.push(req)
        queue.remove(req)
        assert len(queue) == 0

    def test_thread_queries(self):
        queue = RequestQueue()
        queue.push(read_request(0, thread_id=1))
        queue.push(read_request(64, thread_id=2))
        queue.push(read_request(128, thread_id=1))
        assert queue.count_for_thread(1) == 2
        assert set(queue.threads_present()) == {1, 2}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RequestQueue(capacity=0)

    def test_for_bank_filters_by_coordinate(self):
        cfg = DeviceConfig.tiny()
        mapper = AddressMapper(cfg, MappingScheme.MOP)
        queue = RequestQueue()
        req = read_request(0)
        req.coordinate = mapper.map(0)
        queue.push(req)
        assert queue.for_bank(req.coordinate.bank_key) == [req]
        assert queue.for_bank(("x",)) == []

    def test_bank_index_follows_push_and_remove(self):
        mapper = AddressMapper(DeviceConfig.tiny(), MappingScheme.MOP)
        queue = RequestQueue()
        same_bank = [read_request(mapper.address_for_row(0, 0, 1, 1, row))
                     for row in (3, 4, 3)]
        other_bank = read_request(mapper.address_for_row(0, 0, 0, 1, 3))
        unmapped = read_request(64)
        for req in same_bank + [other_bank]:
            req.coordinate = mapper.map(req.address)
        for req in [same_bank[0], other_bank, same_bank[1], unmapped,
                    same_bank[2]]:
            queue.push(req)
        key = same_bank[0].coordinate.bank_key
        assert queue.for_bank(key) == same_bank
        assert [serial for serial, _, _ in queue.by_bank[key]] == [1, 3, 5]
        assert [row for _, row, _ in queue.by_bank[key]] == [3, 4, 3]
        assert queue.by_bank[None] == [(4, None, unmapped)]
        queue.remove(same_bank[1])
        queue.remove(unmapped)
        assert queue.for_bank(key) == [same_bank[0], same_bank[2]]
        queue.remove(other_bank)
        # Banks without queued work leave the index.
        assert list(queue.by_bank) == [key]


def _decorated_requests(channel, mapper, specs):
    """specs: list of (address, arrival) -> requests with coordinates."""

    requests = []
    for address, arrival in specs:
        req = MemoryRequest(address=address, kind=RequestType.READ,
                            arrival_cycle=arrival)
        req.coordinate = mapper.map(address)
        requests.append(req)
    return requests


@pytest.fixture()
def channel_and_mapper():
    cfg = DeviceConfig.tiny()
    return Channel(cfg), AddressMapper(cfg, MappingScheme.MOP)


class TestSchedulers:
    def test_cap_limits_hit_reordering(self, channel_and_mapper):
        channel, mapper = channel_and_mapper
        scheduler = FrFcfsCapScheduler(cap=2)
        hit_addr = mapper.address_for_row(0, 0, 0, 0, 5, column=0)
        miss_addr = mapper.address_for_row(0, 0, 0, 0, 9, column=0)
        coord = mapper.map(hit_addr)
        channel.issue(Command(CommandType.ACT, rank=coord.rank,
                              bank_group=coord.bank_group, bank=coord.bank,
                              row=coord.row), 0)
        miss = _decorated_requests(channel, mapper, [(miss_addr, 0)])[0]
        hits = _decorated_requests(
            channel, mapper,
            [(hit_addr + 64 * i, 10 + i) for i in range(4)],
        )
        candidates = [miss] + hits
        served_hits = 0
        for _ in range(3):
            decision = scheduler.choose(candidates, channel, 100)
            if decision.is_row_hit:
                served_hits += 1
                scheduler.notify_served(decision)
                candidates.remove(decision.request)
            else:
                break
        # After `cap` hits bypassed the older miss, the miss must win.
        assert served_hits == 2
        final = scheduler.choose(candidates, channel, 101)
        assert not final.is_row_hit
        assert final.request is miss

    def test_cap_resets_after_miss_served(self, channel_and_mapper):
        channel, mapper = channel_and_mapper
        scheduler = FrFcfsCapScheduler(cap=1)
        addr = mapper.address_for_row(0, 0, 0, 0, 5, column=0)
        req = _decorated_requests(channel, mapper, [(addr, 0)])[0]
        from repro.controller.scheduler import SchedulerDecision
        scheduler.notify_served(SchedulerDecision(req, True, "row-hit"))
        assert scheduler._hits_over_misses[req.coordinate.bank_key] == 1
        scheduler.notify_served(SchedulerDecision(req, False, "miss"))
        assert scheduler._hits_over_misses[req.coordinate.bank_key] == 0

    def test_empty_candidates(self, channel_and_mapper):
        channel, _ = channel_and_mapper
        assert FrFcfsCapScheduler().choose([], channel, 0) is None
        assert FrFcfsCapScheduler().prioritize([], channel, 0) == []

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            FrFcfsCapScheduler(cap=0)


#: Four banks across both ranks of a two-rank tiny channel.
BANKS = ((0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0))

#: One queued request: (bank index, row or -1 for a request without a
#: coordinate, arrival cycle, is_write).
_request_specs = st.lists(
    st.tuples(st.integers(0, 3), st.integers(-1, 2), st.integers(0, 40),
              st.booleans()),
    max_size=32,
)


def _first_per_bank(decisions):
    """The reference's first decision per bank (no coordinate: no bank)."""

    seen = set()
    firsts = []
    for decision in decisions:
        coord = decision.request.coordinate
        if coord is not None:
            if coord.bank_key in seen:
                continue
            seen.add(coord.bank_key)
        firsts.append(decision)
    return firsts


def _summary(decisions):
    return [(d.request.request_id, d.is_row_hit, d.reason) for d in decisions]


class TestPerBankScan:
    """``iter_prioritized`` yields the reference's first decision per bank."""

    @settings(max_examples=300, deadline=None)
    @given(specs=_request_specs,
           removals=st.lists(st.integers(0, 31), max_size=6),
           open_rows=st.lists(st.integers(-1, 2), min_size=4, max_size=4),
           caps=st.lists(st.integers(2, 5), min_size=4, max_size=4),
           drain=st.booleans())
    def test_matches_reference_first_decision_per_bank(
            self, specs, removals, open_rows, caps, drain):
        controller = MemoryController(DeviceConfig.tiny(ranks=2))
        channel, mapper = controller.channel, controller.mapper
        for (r, g, b), row in zip(BANKS, open_rows):
            if row >= 0:
                channel.bank(r, g, b).issue(
                    Command(CommandType.ACT, rank=r, bank_group=g, bank=b,
                            row=row), 0)
        scheduler = FrFcfsCapScheduler()
        for (r, g, b), count in zip(BANKS, caps):
            scheduler._hits_over_misses[(0, r, g, b)] = count
        pushed = []
        for bank_index, row, arrival, is_write in specs:
            req = MemoryRequest(
                address=0,
                kind=RequestType.WRITE if is_write else RequestType.READ,
                arrival_cycle=arrival,
            )
            if row >= 0:
                req.coordinate = mapper.map(
                    mapper.address_for_row(0, *BANKS[bank_index], row))
            queue = controller.write_queue if is_write \
                else controller.read_queue
            queue.push(req)
            pushed.append((queue, req))
        for index in removals:
            if index < len(pushed) and pushed[index] is not None:
                queue, req = pushed[index]
                queue.remove(req)
                pushed[index] = None
        controller._write_drain = drain
        queue = controller._request_queue()

        reference = scheduler.prioritize(list(queue), channel, 0)
        per_bank = list(scheduler.iter_prioritized(queue, channel, 0))
        assert _summary(per_bank) == _summary(_first_per_bank(reference))

    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(st.one_of(
        # (bank index, row or -1 without a coordinate, arrival, is_write);
        # two rows, so that queued requests often hit the open row.
        st.tuples(st.just("push"), st.integers(0, 3), st.integers(-1, 1),
                  st.integers(0, 40), st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, 63)),
        # (bank index, row to open if the bank is closed; an open bank
        # is closed instead)
        st.tuples(st.just("row"), st.integers(0, 3), st.integers(0, 1)),
        # (bank index, served as a row hit)
        st.tuples(st.just("served"), st.integers(0, 3), st.booleans()),
    ), min_size=12, max_size=40), cap=st.integers(1, 2))
    def test_cached_offers_match_reference_across_scans(self, ops, cap):
        """Offers kept between scans stay the reference's first decision
        per bank through pushes, removes, ACT/PRE issued on the channel
        and cap-counter changes (``notify_served``), on both queues."""

        controller = MemoryController(DeviceConfig.tiny(ranks=2))
        channel, mapper = controller.channel, controller.mapper
        # A small cap, so that a few served hits cap a bank.
        scheduler = FrFcfsCapScheduler(cap=cap)
        queued = []
        cycle = 0

        def check_both_queues():
            for queue in (controller.read_queue, controller.write_queue):
                reference = scheduler.prioritize(list(queue), channel, cycle)
                scanned = scheduler.iter_prioritized(queue, channel, cycle)
                assert _summary(scanned) == _summary(
                    _first_per_bank(reference))

        check_both_queues()
        for op in ops:
            if op[0] == "push":
                _, bank_index, row, arrival, is_write = op
                req = MemoryRequest(
                    address=0,
                    kind=RequestType.WRITE if is_write else RequestType.READ,
                    arrival_cycle=arrival,
                )
                if row >= 0:
                    req.coordinate = mapper.map(
                        mapper.address_for_row(0, *BANKS[bank_index], row))
                queue = controller.write_queue if is_write \
                    else controller.read_queue
                if queue.push(req):
                    queued.append((queue, req))
            elif op[0] == "remove" and queued:
                queue, req = queued.pop(op[1] % len(queued))
                queue.remove(req)
            elif op[0] == "row":
                _, bank_index, row = op
                r, g, b = BANKS[bank_index]
                # Far enough apart that every timing constraint is met.
                cycle += 10_000
                if channel.bank(r, g, b).open_row is not None:
                    channel.issue(Command(CommandType.PRE, rank=r,
                                          bank_group=g, bank=b), cycle)
                else:
                    channel.issue(Command(CommandType.ACT, rank=r,
                                          bank_group=g, bank=b, row=row),
                                  cycle)
            elif op[0] == "served":
                # notify_served reads only the request's bank.
                req = read_request(0)
                req.coordinate = mapper.map(
                    mapper.address_for_row(0, *BANKS[op[1]], 0))
                scheduler.notify_served(
                    SchedulerDecision(req, op[2], "row-hit"))
            check_both_queues()

    def test_capped_bank_offers_its_oldest_miss(self, channel_and_mapper):
        channel, mapper = channel_and_mapper
        hit_addr = mapper.address_for_row(0, 0, 0, 0, 5, column=0)
        miss_addr = mapper.address_for_row(0, 0, 0, 0, 9, column=0)
        coord = mapper.map(hit_addr)
        channel.issue(Command(CommandType.ACT, rank=coord.rank,
                              bank_group=coord.bank_group, bank=coord.bank,
                              row=coord.row), 0)
        queue = RequestQueue()
        miss, hit = _decorated_requests(channel, mapper,
                                        [(miss_addr, 0), (hit_addr, 1)])
        queue.push(miss)
        queue.push(hit)
        scheduler = FrFcfsCapScheduler(cap=2)
        first = next(scheduler.iter_prioritized(queue, channel, 10))
        assert first.request is hit and first.is_row_hit
        # Raised through the controller's hook, which marks the bank's
        # cached offer stale.
        for _ in range(2):
            scheduler.notify_served(SchedulerDecision(hit, True, "row-hit"))
        assert scheduler._hits_over_misses[coord.bank_key] == 2
        decisions = list(scheduler.iter_prioritized(queue, channel, 10))
        assert [d.request for d in decisions] == [miss]
        assert decisions[0].reason == "oldest-miss"


class TestMemoryRequest:
    def test_latency_and_completion_callback(self):
        req = read_request(64, thread_id=2, arrival_cycle=10)
        req.complete(50)
        assert req.latency == 40
        # The controller hands each completed read, and no write, to the
        # respond function of the tick it completes in.
        fired = []
        controller = MemoryController(DeviceConfig.tiny())
        read = read_request(64, thread_id=2)
        write = write_request(4096, thread_id=2)
        assert controller.enqueue(read) and controller.enqueue(write)
        controller.drain(respond=lambda r, c: fired.append((r, c)))
        assert write.completion_cycle is not None
        assert fired == [(read, read.completion_cycle)]

    def test_write_request_flag(self):
        assert write_request(0).is_write
        assert not read_request(0).is_write

    def test_unique_ids(self):
        assert read_request(0).request_id != read_request(0).request_id
