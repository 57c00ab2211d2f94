"""Tests for the BreakHammer orchestration (observe → identify → throttle)."""

import pytest

from repro.core.breakhammer import BreakHammer, BreakHammerConfig
from repro.cpu.mshr import MshrFile
from repro.dram.address import DramAddress
from repro.dram.config import DeviceConfig
from repro.mitigations.base import PreventiveAction, PreventiveActionKind


def coord(row=5):
    return DramAddress(0, 0, 0, 0, row, 0)


def action(weight=1.0):
    return PreventiveAction(
        kind=PreventiveActionKind.VICTIM_REFRESH,
        commands=[],
        mechanism="test",
        weight=weight,
    )


def make_bh(**overrides):
    defaults = dict(window_ms=0.001, threat_threshold=4.0,
                    outlier_threshold=0.65)
    defaults.update(overrides)
    config = BreakHammerConfig(**defaults)
    quota_calls = []
    bh = BreakHammer(
        num_threads=4,
        config=config,
        device_config=DeviceConfig.tiny(),
        full_quota=64,
        apply_quota=lambda t, q: quota_calls.append((t, q)),
    )
    return bh, quota_calls


class TestScoreAttribution:
    def test_score_proportional_to_activation_share(self):
        bh, _ = make_bh()
        for _ in range(30):
            bh.on_activation(coord(), 0, 0)
        for _ in range(10):
            bh.on_activation(coord(), 1, 0)
        bh.on_preventive_action(action(), 0)
        assert bh.score_of(0) == pytest.approx(0.75)
        assert bh.score_of(1) == pytest.approx(0.25)
        assert bh.score_of(2) == 0.0

    def test_activation_tracking_resets_after_action(self):
        bh, _ = make_bh()
        for _ in range(10):
            bh.on_activation(coord(), 0, 0)
        bh.on_preventive_action(action(), 0)
        # Second action with no new activations attributes nothing new.
        bh.on_preventive_action(action(), 1)
        assert bh.score_of(0) == pytest.approx(1.0)

    def test_weight_scales_attribution(self):
        bh, _ = make_bh()
        bh.on_activation(coord(), 2, 0)
        bh.on_preventive_action(action(weight=0.25), 0)
        assert bh.score_of(2) == pytest.approx(0.25)

    def test_unknown_thread_ignored(self):
        bh, _ = make_bh()
        bh.on_activation(coord(), None, 0)
        bh.on_activation(coord(), 99, 0)
        bh.on_preventive_action(action(), 0)
        assert all(bh.score_of(t) == 0.0 for t in range(4))

    def test_total_attributed_score_equals_action_weights(self):
        bh, _ = make_bh()
        for i in range(8):
            bh.on_activation(coord(), i % 4, 0)
            bh.on_preventive_action(action(), 0)
        assert bh.stats.score_attributed == pytest.approx(8.0)


class TestSuspectIdentificationAndThrottling:
    def hammer(self, bh, attacker=3, actions=12, attacker_share=0.8):
        """Generate activations dominated by one thread plus actions."""

        for _ in range(actions):
            for _ in range(int(10 * attacker_share)):
                bh.on_activation(coord(), attacker, 0)
            for t in range(4):
                if t != attacker:
                    bh.on_activation(coord(), t, 0)
            bh.on_preventive_action(action(), 0)

    def test_dominant_thread_marked_and_throttled(self):
        bh, quota_calls = make_bh()
        self.hammer(bh, attacker=3)
        assert 3 in bh.suspects()
        assert bh.is_throttled(3)
        assert bh.quota_of(3) == 6
        assert (3, 6) in quota_calls
        assert bh.stats.suspects_by_thread.get(3, 0) >= 1

    def test_benign_threads_not_throttled(self):
        bh, _ = make_bh()
        self.hammer(bh, attacker=3)
        for t in (0, 1, 2):
            assert not bh.is_throttled(t)
            assert bh.quota_of(t) == 64

    def test_uniform_load_never_throttles(self):
        bh, _ = make_bh()
        for _ in range(50):
            for t in range(4):
                bh.on_activation(coord(), t, 0)
            bh.on_preventive_action(action(), 0)
        assert bh.suspects() == []
        assert all(not bh.is_throttled(t) for t in range(4))

    def test_threat_threshold_prevents_early_throttling(self):
        bh, _ = make_bh(threat_threshold=1000.0)
        self.hammer(bh, attacker=3)
        assert not bh.is_throttled(3)

    def test_window_rotation_restores_clean_thread(self):
        bh, _ = make_bh()
        self.hammer(bh, attacker=3)
        assert bh.is_throttled(3)
        window = bh.window_cycles
        # Two clean windows: one to clear recent_suspect, one to restore.
        bh.tick(window + 1)
        bh.tick(2 * window + 2)
        bh.tick(3 * window + 3)
        assert bh.quota_of(3) == 64

    def test_repeat_offender_quota_shrinks_further(self):
        bh, _ = make_bh()
        self.hammer(bh, attacker=3)
        first_quota = bh.quota_of(3)
        bh.tick(bh.window_cycles + 1)   # next window; still recent suspect
        self.hammer(bh, attacker=3)
        assert bh.quota_of(3) == first_quota - 1  # P_oldsuspect = 1

    def test_drives_the_mshr_quota(self):
        """The quota target System wires in: only the suspect's drops."""

        mshrs = MshrFile(64, num_threads=4)
        bh = BreakHammer(num_threads=4,
                         config=BreakHammerConfig(window_ms=0.001,
                                                  threat_threshold=4.0),
                         device_config=DeviceConfig.tiny(),
                         full_quota=64,
                         apply_quota=mshrs.set_quota)
        self.hammer(bh, attacker=3)
        assert bh.is_throttled(3)
        assert mshrs.quota_for(3) == bh.quota_of(3) < 64
        assert [mshrs.quota_for(t) for t in (0, 1, 2)] == [64, 64, 64]


class TestConfigurationAndExport:
    def test_paper_defaults(self):
        config = BreakHammerConfig()
        assert config.window_ms == 64.0
        assert config.threat_threshold == 32.0
        assert config.outlier_threshold == 0.65
        assert config.p_oldsuspect == 1
        assert config.p_newsuspect == 10

    def test_window_cycles_derived_from_tck(self):
        bh = BreakHammer(num_threads=2, config=BreakHammerConfig(window_ms=1.0),
                         cycle_time_ns=1.0)
        assert bh.window_cycles == 1_000_000

    def test_action_scores_its_sole_activator(self):
        bh, _ = make_bh()
        bh.on_activation(coord(), 1, 0)
        bh.on_preventive_action(action(), 0)
        scores = [bh.scores.score_of(thread) for thread in range(4)]
        assert scores == pytest.approx([0.0, 1.0, 0.0, 0.0])

    def test_snapshot_contains_all_sections(self):
        bh, _ = make_bh()
        snap = bh.snapshot()
        assert {"config", "window_cycles", "stats", "scores", "throttler"} <= set(snap)

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            BreakHammer(num_threads=0)

    def test_windows_elapsed_counted(self):
        bh, _ = make_bh()
        for i in range(1, 4):
            bh.tick(i * bh.window_cycles + i)
        assert bh.stats.windows_elapsed == 3
