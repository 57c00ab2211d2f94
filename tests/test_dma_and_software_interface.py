"""Tests for the §4.4 DMA throttling support."""

import pytest

from repro.controller.controller import MemoryController
from repro.core.breakhammer import BreakHammer, BreakHammerConfig
from repro.cpu.dma import DmaConfig, DmaEngine, OutstandingRequestTable
from repro.dram.address import DramAddress
from repro.dram.config import DeviceConfig
from repro.mitigations.base import PreventiveAction, PreventiveActionKind


class TestOutstandingRequestTable:
    def test_issue_and_resolve(self):
        table = OutstandingRequestTable(capacity=4, num_requesters=2)
        assert table.issue(0)
        assert table.outstanding_for(0) == 1
        table.resolve(0)
        assert table.outstanding_for(0) == 0

    def test_capacity_bound(self):
        table = OutstandingRequestTable(capacity=2, num_requesters=2)
        assert table.issue(0) and table.issue(1)
        assert not table.issue(0)
        assert table.rejections == 1

    def test_quota_bound_mirrors_mshr_interface(self):
        table = OutstandingRequestTable(capacity=8, num_requesters=2)
        table.set_quota(0, 1)
        assert table.issue(0)
        assert not table.can_issue(0)
        assert table.can_issue(1)  # other requester unaffected
        table.reset_quota(0)
        assert table.can_issue(0)

    def test_quota_clamped_and_snapshot(self):
        table = OutstandingRequestTable(capacity=4)
        table.set_quota(0, 100)
        assert table.quota_for(0) == 4
        table.set_quota(0, -3)
        assert table.quota_for(0) == 0
        assert table.snapshot()["capacity"] == 4

    def test_resolve_without_issue_raises(self):
        table = OutstandingRequestTable(capacity=4)
        with pytest.raises(RuntimeError):
            table.resolve(0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            OutstandingRequestTable(capacity=0)


class TestDmaEngine:
    def make_system(self, quota=None):
        cfg = DeviceConfig.tiny()
        controller = MemoryController(cfg)
        table = OutstandingRequestTable(capacity=16, num_requesters=1)
        if quota is not None:
            table.set_quota(0, quota)
        dma = DmaEngine(0, DmaConfig(length_bytes=64 * 1024,
                                     requests_per_cycle=2),
                        table, controller.enqueue)
        return controller, table, dma

    def run(self, controller, dma, cycles=3000):
        for cycle in range(1, cycles):
            controller.tick(cycle)
            dma.tick(cycle)
        return dma

    def test_dma_streams_requests_to_memory(self):
        controller, table, dma = self.make_system()
        self.run(controller, dma)
        assert dma.stats.issued > 50
        assert dma.stats.completed > 0
        assert controller.stats.reads_completed == dma.stats.completed

    def test_outstanding_never_exceeds_quota(self):
        controller, table, dma = self.make_system(quota=2)
        max_outstanding = 0
        for cycle in range(1, 2000):
            controller.tick(cycle)
            dma.tick(cycle)
            max_outstanding = max(max_outstanding, table.outstanding_for(0))
        assert max_outstanding <= 2

    def test_throttled_dma_makes_less_progress(self):
        controller_full, _, dma_full = self.make_system()
        controller_cut, _, dma_cut = self.make_system(quota=1)
        self.run(controller_full, dma_full)
        self.run(controller_cut, dma_cut)
        assert dma_cut.stats.issued < dma_full.stats.issued

    def test_write_dma(self):
        cfg = DeviceConfig.tiny()
        controller = MemoryController(cfg)
        table = OutstandingRequestTable(capacity=8, num_requesters=1)
        dma = DmaEngine(0, DmaConfig(is_write=True, length_bytes=32 * 1024),
                        table, controller.enqueue)
        for cycle in range(1, 2000):
            controller.tick(cycle)
            dma.tick(cycle)
        assert controller.stats.writes_completed > 0

    def test_breakhammer_can_drive_dma_quota(self):
        """The §4.4 integration: BreakHammer's apply_quota targets the table."""

        table = OutstandingRequestTable(capacity=16, num_requesters=2)
        bh = BreakHammer(num_threads=2,
                         config=BreakHammerConfig(window_ms=0.001,
                                                  threat_threshold=2.0),
                         full_quota=16,
                         apply_quota=table.set_quota,
                         cycle_time_ns=1.0)
        coord = DramAddress(0, 0, 0, 0, 5, 0)
        for _ in range(10):
            for _ in range(20):
                bh.on_activation(coord, 1, 0)
            bh.on_activation(coord, 0, 0)
            bh.on_preventive_action(
                PreventiveAction(PreventiveActionKind.VICTIM_REFRESH, [],
                                 "test"), 0)
        assert bh.is_throttled(1)
        assert table.quota_for(1) < 16
        assert table.quota_for(0) == 16

    def test_dma_config_validation(self):
        with pytest.raises(ValueError):
            DmaConfig(length_bytes=0)
        with pytest.raises(ValueError):
            DmaConfig(requests_per_cycle=0)
