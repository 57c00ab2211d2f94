"""Integration tests for the memory controller."""

import dataclasses

import pytest

from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest, RequestType, read_request, write_request
from repro.dram.address import AddressMapper, MappingScheme
from repro.dram.commands import CommandType
from repro.dram.config import DeviceConfig
from repro.mitigations.base import NoMitigation
from repro.mitigations.para import Para
from repro.mitigations.registry import create_mechanism


@pytest.fixture()
def controller():
    cfg = DeviceConfig.tiny()
    return MemoryController(cfg)


def run_until_complete(controller, requests, max_cycles=50_000):
    completed = []
    for req in requests:
        assert controller.enqueue(req)
    cycle = controller.cycle
    while len(completed) < len(requests) and max_cycles > 0:
        cycle += 1
        max_cycles -= 1
        completed.extend(controller.tick(cycle))
    return completed, cycle


class TestBasicService:
    def test_single_read_completes(self, controller):
        req = read_request(0, thread_id=0)
        completed, _ = run_until_complete(controller, [req])
        assert completed == [req]
        assert req.completion_cycle is not None
        assert req.latency > 0
        assert controller.stats.reads_completed == 1
        assert controller.stats.activations == 1

    def test_write_completes(self, controller):
        req = write_request(128, thread_id=1)
        completed, _ = run_until_complete(controller, [req])
        assert completed == [req]
        assert controller.stats.writes_completed == 1

    def test_row_hit_faster_than_row_miss(self, controller):
        mapper = controller.mapper
        base = mapper.address_for_row(0, 0, 0, 0, 5, column=0)
        same_row = mapper.address_for_row(0, 0, 0, 0, 5, column=1)
        other_row = mapper.address_for_row(0, 0, 0, 0, 9, column=0)
        first = read_request(base, thread_id=0)
        hit = read_request(same_row, thread_id=0)
        completed, _ = run_until_complete(controller, [first, hit])
        hit_latency = hit.completion_cycle - first.completion_cycle

        controller2 = MemoryController(DeviceConfig.tiny())
        first2 = read_request(base, thread_id=0)
        conflict = read_request(other_row, thread_id=0)
        run_until_complete(controller2, [first2, conflict])
        conflict_latency = conflict.completion_cycle - first2.completion_cycle
        assert hit_latency < conflict_latency

    def test_queue_rejection_when_full(self):
        cfg = DeviceConfig.tiny()
        controller = MemoryController(cfg, read_queue_size=2)
        assert controller.enqueue(read_request(0))
        assert controller.enqueue(read_request(64))
        assert not controller.enqueue(read_request(128))
        assert controller.can_accept(RequestType.WRITE)
        assert not controller.can_accept(RequestType.READ)

    def test_requests_to_different_banks_overlap(self, controller):
        mapper = controller.mapper
        reqs = [
            read_request(mapper.address_for_row(0, 0, bg, ba, 3), thread_id=0)
            for bg in range(2) for ba in range(2)
        ]
        completed, cycles = run_until_complete(controller, reqs)
        assert len(completed) == 4
        # Bank-level parallelism: four conflicting-row accesses to four banks
        # should finish far faster than four serialized row cycles.
        serial = 4 * controller.timing.trc
        assert cycles < serial

    def test_activation_attribution_per_thread(self, controller):
        mapper = controller.mapper
        reqs = [
            read_request(mapper.address_for_row(0, 0, 0, 0, row), thread_id=row % 2)
            for row in range(4)
        ]
        run_until_complete(controller, reqs)
        per_thread = controller.stats.activations_by_thread
        assert sum(per_thread.values()) == controller.stats.activations
        assert set(per_thread) == {0, 1}


def _serve_hits_then_a_miss(controller):
    """Serve two row hits to one bank, then a miss to another row of it.

    Returns the bank's key.  The miss needs PRE, ACT and RD.
    """

    mapper = controller.mapper
    opener = read_request(mapper.address_for_row(0, 0, 0, 0, 5, column=0))
    hit = read_request(mapper.address_for_row(0, 0, 0, 0, 5, column=1))
    run_until_complete(controller, [opener, hit])
    miss = read_request(mapper.address_for_row(0, 0, 0, 0, 9, column=0))
    run_until_complete(controller, [miss])
    return miss.coordinate.bank_key


class TestCapCounterInController:
    """FR-FCFS+Cap's per-bank reorder counter as the controller drives it."""

    def test_scenario_serves_the_miss_through_pre_act_rd(self, controller):
        _serve_hits_then_a_miss(controller)
        stats = controller.stats
        assert stats.reads_completed == 3
        assert stats.row_conflicts == 1
        assert stats.activations == 2
        assert stats.row_hits == 3  # every RD, the miss's included

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the controller reports only column commands to "
        "notify_served, always as row hits, so the counter never resets"
    ))
    def test_serving_a_banks_oldest_miss_resets_its_counter(self, controller):
        key = _serve_hits_then_a_miss(controller)
        assert controller.scheduler._hits_over_misses[key] == 0


class TestRefreshBehaviour:
    def test_periodic_refresh_issued(self):
        cfg = DeviceConfig.tiny()
        controller = MemoryController(cfg)
        t = cfg.timing_cycles()
        for cycle in range(1, 3 * t.trefi):
            controller.tick(cycle)
        assert controller.stats.refreshes >= 2

    def test_refresh_continues_under_load(self):
        cfg = DeviceConfig.tiny()
        controller = MemoryController(cfg)
        mapper = controller.mapper
        t = cfg.timing_cycles()
        cycle = 0
        row = 0
        while cycle < 3 * t.trefi:
            cycle += 1
            if controller.can_accept(RequestType.READ) and cycle % 7 == 0:
                row += 1
                controller.enqueue(read_request(
                    mapper.address_for_row(0, 0, row % 2, row % 2, row % 64),
                    thread_id=0,
                ))
            controller.tick(cycle)
        assert controller.stats.refreshes >= 2


class TestMitigationIntegration:
    def test_para_triggers_preventive_actions(self):
        cfg = DeviceConfig.tiny()
        mitigation = Para(cfg, nrh=8, probability=1.0)
        controller = MemoryController(cfg, mitigation=mitigation)
        mapper = controller.mapper
        reqs = [
            read_request(mapper.address_for_row(0, 0, 0, 0, row), thread_id=0)
            for row in range(5)
        ]
        run_until_complete(controller, reqs)
        controller.drain()
        assert controller.stats.preventive_actions >= 5
        assert controller.stats.preventive_commands >= 5
        assert controller.channel.stats()["preventive_refreshes"] >= 5

    def test_observer_sees_activations_and_actions(self):
        class Recorder:
            def __init__(self):
                self.activations = []
                self.actions = []

            def on_activation(self, coord, thread, cycle):
                self.activations.append((coord.row, thread))

            def on_preventive_action(self, action, cycle):
                self.actions.append(action)

        cfg = DeviceConfig.tiny()
        mitigation = Para(cfg, nrh=8, probability=1.0)
        controller = MemoryController(cfg, mitigation=mitigation)
        recorder = Recorder()
        controller.register_observer(recorder)
        mapper = controller.mapper
        reqs = [
            read_request(mapper.address_for_row(0, 0, 0, 0, row), thread_id=2)
            for row in range(3)
        ]
        run_until_complete(controller, reqs)
        controller.drain()
        assert len(recorder.activations) == 3
        assert all(thread == 2 for _, thread in recorder.activations)
        assert len(recorder.actions) >= 3

    def test_blocked_activation_counted_with_blockhammer(self):
        cfg = DeviceConfig.tiny()
        mitigation = create_mechanism("blockhammer", cfg, nrh=16)
        controller = MemoryController(cfg, mitigation=mitigation)
        mapper = controller.mapper
        # Hammer two rows of one bank far past the blacklist threshold.
        reqs = []
        for i in range(40):
            row = 5 if i % 2 == 0 else 7
            reqs.append(read_request(
                mapper.address_for_row(0, 0, 0, 0, row, column=i % 16),
                thread_id=0,
            ))
        run_until_complete(controller, reqs, max_cycles=200_000)
        assert controller.stats.blocked_activations > 0
        assert mitigation.delayed_activations > 0

    @pytest.mark.parametrize("refresh_window_ms", [None, 0.002])
    def test_vetoes_credited_across_skipped_cycles(self, refresh_window_ms):
        """Ticking only at next_event_cycle(), as the fast engine does,
        counts exactly the vetoes that ticking every cycle counts.

        With the default device no veto ends inside the run; with a
        0.002 ms refresh window vetoes also end by timeout, at counter
        window switches and at refresh-window clears.
        """

        end = 12_000

        def run(skip):
            cfg = DeviceConfig.tiny()
            if refresh_window_ms is not None:
                cfg = dataclasses.replace(cfg, timings=dataclasses.replace(
                    cfg.timings, refresh_window_ms=refresh_window_ms))
            mitigation = create_mechanism("blockhammer", cfg, nrh=16)
            controller = MemoryController(cfg, mitigation=mitigation)
            mapper = controller.mapper
            # Two rows hammered in each of four banks: several vetoes in
            # one scan.
            for i in range(48):
                row = 5 if i % 2 == 0 else 7
                bank = (i // 2) % 4
                assert controller.enqueue(read_request(
                    mapper.address_for_row(0, 0, 0, bank, row,
                                           column=i % 16),
                    thread_id=0,
                ))
            cycle = ticks = 0
            while cycle < end:
                event = controller.next_event_cycle() if skip else None
                cycle = min(max(event or cycle + 1, cycle + 1), end)
                controller.tick(cycle)
                ticks += 1
            return controller, mitigation, ticks

        stepped, stepped_mitigation, stepped_ticks = run(skip=False)
        skipped, skipped_mitigation, skipped_ticks = run(skip=True)
        assert stepped_ticks == end
        assert skipped_ticks < end // 10
        blocked = stepped.stats.blocked_activations
        assert blocked > 0
        assert skipped.stats.blocked_activations == blocked
        assert skipped_mitigation.delayed_activations == blocked
        assert stepped_mitigation.delayed_activations == blocked
        assert skipped.stats == stepped.stats
        assert skipped_mitigation.stats() == stepped_mitigation.stats()

    def test_snapshot_structure(self, controller):
        run_until_complete(controller, [read_request(0, thread_id=0)])
        snap = controller.snapshot()
        assert snap["reads_completed"] == 1
        assert "mitigation" in snap and "channel" in snap

    def test_drain_empties_pending_work(self):
        cfg = DeviceConfig.tiny()
        controller = MemoryController(cfg, mitigation=NoMitigation(cfg))
        for i in range(8):
            controller.enqueue(read_request(i * 4096, thread_id=0))
        controller.drain()
        assert controller.pending_requests == 0
