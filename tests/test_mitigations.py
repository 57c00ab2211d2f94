"""Tests for the eight RowHammer mitigation mechanisms and BlockHammer."""

import pytest

from repro.dram.address import DramAddress
from repro.dram.commands import CommandType
from repro.dram.config import DeviceConfig
from repro.mitigations import (
    Aqua,
    BlockHammer,
    Graphene,
    Hydra,
    MisraGriesTable,
    NoMitigation,
    Para,
    Prac,
    PreventiveActionKind,
    Rega,
    RfmMitigation,
    TwiCe,
    available_mechanisms,
    create_mechanism,
    register_mechanism,
)
from repro.mitigations.registry import NRH_SWEEP, PAIRED_MECHANISMS


CFG = DeviceConfig.tiny()


def coord(row=10, bank=0, bank_group=0, rank=0):
    return DramAddress(channel=0, rank=rank, bank_group=bank_group, bank=bank,
                       row=row, column=0)


def hammer(mechanism, row, count, thread=0, start_cycle=0, step=50):
    """Feed ``count`` activations of one row; return all produced actions."""

    actions = []
    cycle = start_cycle
    for _ in range(count):
        actions.extend(mechanism.on_activation(coord(row), thread, cycle))
        cycle += step
    return actions


class TestBaseClass:
    def test_invalid_nrh_rejected(self):
        with pytest.raises(ValueError):
            Para(CFG, nrh=0)

    def test_no_mitigation_never_acts(self):
        mech = NoMitigation(CFG)
        assert hammer(mech, 3, 500) == []
        assert mech.stats()["actions_triggered"] == 0

    def test_victim_refresh_action_respects_blast_radius(self):
        mech = Para(CFG, nrh=64, probability=1.0, blast_radius=2)
        actions = mech.on_activation(coord(10), 0, 0)
        assert len(actions) == 1
        rows = {cmd.row for cmd in actions[0].commands}
        assert rows == {8, 9, 11, 12}

    def test_victim_refresh_clipped_at_row_zero(self):
        mech = Para(CFG, nrh=64, probability=1.0)
        actions = mech.on_activation(coord(0), 0, 0)
        rows = {cmd.row for cmd in actions[0].commands}
        assert rows == {1}  # row -1 does not exist


class TestPara:
    def test_probability_scales_with_nrh(self):
        assert Para(CFG, nrh=64).probability > Para(CFG, nrh=4096).probability

    def test_probability_one_always_triggers(self):
        mech = Para(CFG, nrh=64, probability=1.0)
        actions = hammer(mech, 5, 20)
        assert len(actions) == 20
        assert all(a.kind is PreventiveActionKind.VICTIM_REFRESH for a in actions)

    def test_trigger_rate_close_to_probability(self):
        mech = Para(CFG, nrh=64, probability=0.25, seed=3)
        actions = hammer(mech, 5, 4000)
        assert 0.2 < len(actions) / 4000 < 0.3

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Para(CFG, nrh=64, probability=0.0)

    def test_deterministic_with_seed(self):
        a = [len(hammer(Para(CFG, nrh=128, seed=7), 5, 200))]
        b = [len(hammer(Para(CFG, nrh=128, seed=7), 5, 200))]
        assert a == b


class TestMisraGries:
    def test_tracks_frequent_element(self):
        table = MisraGriesTable(capacity=2)
        for _ in range(10):
            table.observe(1)
        assert table.counters[1] == 10

    def test_spillover_when_full(self):
        table = MisraGriesTable(capacity=1)
        table.observe(1)
        estimate = table.observe(2)
        assert estimate >= 1
        assert table.spillover >= 0

    def test_estimate_never_underestimates_by_more_than_spillover(self):
        table = MisraGriesTable(capacity=4)
        true_counts = {}
        import random
        rng = random.Random(0)
        for _ in range(2000):
            row = rng.randrange(12)
            true_counts[row] = true_counts.get(row, 0) + 1
            table.observe(row)
        for row, estimate in table.counters.items():
            assert estimate + 0 >= true_counts[row] - table.spillover


class TestGraphene:
    def test_refreshes_after_threshold(self):
        mech = Graphene(CFG, nrh=64)
        actions = hammer(mech, 7, 40)
        assert len(actions) >= 1
        assert actions[0].kind is PreventiveActionKind.VICTIM_REFRESH
        assert mech.refresh_threshold == 32

    def test_no_refresh_below_threshold(self):
        mech = Graphene(CFG, nrh=64)
        assert hammer(mech, 7, 20) == []

    def test_reset_on_refresh_window(self):
        mech = Graphene(CFG, nrh=64)
        hammer(mech, 7, 20)
        mech.on_refresh_window(0)
        assert hammer(mech, 7, 20) == []  # counter restarted

    def test_repeated_hammering_triggers_repeatedly(self):
        mech = Graphene(CFG, nrh=64)
        actions = hammer(mech, 7, 200)
        assert len(actions) >= 5

    def test_tracks_multiple_banks_independently(self):
        mech = Graphene(CFG, nrh=64)
        for i in range(40):
            mech.on_activation(coord(7, bank=0), 0, i)
            mech.on_activation(coord(7, bank=1), 0, i)
        assert mech.stats()["banks_tracked"] == 2


class TestHydra:
    def test_group_then_row_tracking(self):
        mech = Hydra(CFG, nrh=32)
        actions = hammer(mech, 9, 100)
        refreshes = [a for a in actions
                     if a.metadata.get("reason") != "rct_miss"]
        assert refreshes, "per-row tracking should eventually refresh"

    def test_rct_misses_counted(self):
        mech = Hydra(CFG, nrh=32)
        hammer(mech, 9, 100)
        assert mech.rcc_misses >= 1
        assert mech.rcc_hits >= 1

    def test_refresh_window_resets_state(self):
        mech = Hydra(CFG, nrh=32)
        hammer(mech, 9, 100)
        mech.on_refresh_window(0)
        assert hammer(mech, 9, 5) == []

    def test_sram_cost_reported(self):
        assert Hydra(CFG, nrh=1024).sram_cost_bytes() > 0


class TestTwiCe:
    def test_refresh_after_threshold(self):
        mech = TwiCe(CFG, nrh=64)
        actions = hammer(mech, 4, 64)
        assert len(actions) >= 1

    def test_pruning_removes_cold_rows(self):
        mech = TwiCe(CFG, nrh=1024, checkpoint_interval_cycles=100)
        mech.on_activation(coord(4), 0, 0)
        for cycle in range(0, 1000, 100):
            mech.tick(cycle)
        assert mech.pruned_entries >= 1

    def test_hot_rows_survive_pruning(self):
        mech = TwiCe(CFG, nrh=64, checkpoint_interval_cycles=1000)
        for cycle in range(0, 2000, 10):
            mech.on_activation(coord(4), 0, cycle)
            mech.tick(cycle)
        table = mech._tables[coord(4).bank_key]
        # The hot row is either still tracked or was refreshed (reset).
        assert mech.actions_triggered >= 1 or 4 in table


class TestAqua:
    def test_migration_after_threshold(self):
        mech = Aqua(CFG, nrh=64)
        actions = hammer(mech, 11, 40)
        assert any(a.kind is PreventiveActionKind.ROW_MIGRATION for a in actions)
        assert any(cmd.kind is CommandType.MIG
                   for a in actions for cmd in a.commands)

    def test_quarantine_overflow_causes_extra_migration(self):
        mech = Aqua(CFG, nrh=8, quarantine_rows_per_bank=1)
        actions = []
        for row in range(5):
            actions.extend(hammer(mech, row * 10, 10))
        assert mech.dequarantine_migrations >= 1

    def test_migrations_counted(self):
        mech = Aqua(CFG, nrh=64)
        hammer(mech, 11, 100)
        assert mech.migrations == mech.stats()["migrations"] >= 1


class TestRega:
    def test_no_blocking_commands(self):
        mech = Rega(CFG, nrh=64)
        actions = hammer(mech, 3, 10)
        assert actions, "REGA should emit scoring actions"
        assert all(not a.commands for a in actions)

    def test_timing_penalty_grows_as_nrh_drops(self):
        assert Rega(CFG, nrh=64).timing_penalty_ns() > Rega(
            CFG, nrh=4096).timing_penalty_ns()

    def test_adjusted_timings_extend_trc(self):
        mech = Rega(CFG, nrh=64)
        adjusted = mech.adjusted_timings()
        assert adjusted.trc > CFG.timings.trc
        assert adjusted.tras > CFG.timings.tras
        assert adjusted.trcd == CFG.timings.trcd

    def test_scoring_rate_follows_rega_t(self):
        mech = Rega(CFG, nrh=4096, rega_t=4)
        actions = hammer(mech, 3, 40)
        assert len(actions) == 10


class TestRfm:
    def test_rfm_issued_every_raaimt_activations(self):
        mech = RfmMitigation(CFG, nrh=4096, raaimt=10)
        actions = hammer(mech, 3, 35)
        assert len(actions) == 3
        assert all(a.kind is PreventiveActionKind.RFM for a in actions)
        assert all(cmd.kind is CommandType.RFM
                   for a in actions for cmd in a.commands)

    def test_raaimt_scales_with_nrh(self):
        assert RfmMitigation(CFG, nrh=64).raaimt < RfmMitigation(
            CFG, nrh=4096).raaimt

    def test_counters_are_per_bank(self):
        mech = RfmMitigation(CFG, nrh=4096, raaimt=10)
        for i in range(9):
            assert mech.on_activation(coord(3, bank=0), 0, i) == []
            assert mech.on_activation(coord(3, bank=1), 0, i) == []
        assert mech.on_activation(coord(3, bank=0), 0, 100) != []

    def test_refresh_window_resets_raa(self):
        mech = RfmMitigation(CFG, nrh=4096, raaimt=10)
        hammer(mech, 3, 9)
        mech.on_refresh_window(0)
        assert hammer(mech, 3, 9) == []


class TestPrac:
    def test_backoff_after_threshold(self):
        mech = Prac(CFG, nrh=64)
        actions = hammer(mech, 6, 32)
        assert actions
        assert actions[0].kind is PreventiveActionKind.BACKOFF

    def test_backoff_includes_rfm_commands(self):
        mech = Prac(CFG, nrh=64, rfm_per_backoff=3)
        actions = hammer(mech, 6, 40)
        kinds = [cmd.kind for a in actions for cmd in a.commands]
        assert CommandType.VRR in kinds
        assert CommandType.RFM in kinds

    def test_counter_resets_after_backoff(self):
        mech = Prac(CFG, nrh=64)
        hammer(mech, 6, 32)
        assert mech._row_counters.get(coord(6).row_key, 0) == 0

    def test_precise_per_row_counting(self):
        mech = Prac(CFG, nrh=64)
        for i in range(31):
            assert mech.on_activation(coord(6), 0, i) == []
            assert mech.on_activation(coord(8), 0, i) == []
        assert mech.backoffs == 0


class TestBlockHammer:
    def test_blacklists_after_threshold(self):
        mech = BlockHammer(CFG, nrh=32)
        hammer(mech, 5, mech.blacklist_threshold)
        assert mech.is_blacklisted(coord(5))
        assert mech.blacklisted_rows == 1

    def test_blacklisted_row_is_rate_limited(self):
        mech = BlockHammer(CFG, nrh=32)
        hammer(mech, 5, mech.blacklist_threshold, step=1)
        last_cycle = mech.blacklist_threshold
        floor = mech.activation_floor(coord(5))
        assert last_cycle + 1 < floor  # vetoed at last_cycle + 1
        ok_cycle = last_cycle + mech.min_activation_interval
        assert floor <= ok_cycle  # allowed at ok_cycle
        # The gate is a query: the memory controller counts the vetoes.
        assert mech.delayed_activations == 0

    def test_benign_row_never_blocked(self):
        mech = BlockHammer(CFG, nrh=32)
        hammer(mech, 5, 3)
        assert mech.activation_floor(coord(5)) <= 100

    def test_gate_is_zero_below_blacklist_threshold(self):
        mech = BlockHammer(CFG, nrh=32)
        hammer(mech, 5, mech.blacklist_threshold - 1, step=1)
        assert not mech.is_blacklisted(coord(5))
        assert mech.activation_floor(coord(5)) == 0
        assert mech.activation_floor(coord(6)) == 0  # never activated

    def test_gate_is_last_activation_plus_interval_when_blacklisted(self):
        mech = BlockHammer(CFG, nrh=32)
        hammer(mech, 5, mech.blacklist_threshold, start_cycle=100, step=7)
        last = 100 + 7 * (mech.blacklist_threshold - 1)
        assert mech.activation_floor(coord(5)) == \
            last + mech.min_activation_interval

    def test_gate_drops_at_the_window_switch_that_unblacklists(self):
        mech = BlockHammer(CFG, nrh=32)
        hammer(mech, 5, mech.blacklist_threshold, step=1)
        floor = mech.activation_floor(coord(5))
        half = mech.window_cycles // 2
        # The first switch keeps the counts (the shadow window saw them).
        mech.tick(half)
        assert mech.activation_floor(coord(5)) == floor
        # The second expires them: the row is no longer blacklisted.
        mech.tick(2 * half)
        assert not mech.is_blacklisted(coord(5))
        assert mech.activation_floor(coord(5)) == 0

    def test_gate_drops_after_refresh_window(self):
        mech = BlockHammer(CFG, nrh=32)
        hammer(mech, 5, mech.blacklist_threshold, step=1)
        assert mech.activation_floor(coord(5)) > 0
        mech.on_refresh_window(mech.blacklist_threshold)
        assert mech.is_blacklisted(coord(5))
        assert mech.activation_floor(coord(5)) == 0

    def test_only_blockhammer_gates(self):
        for name in available_mechanisms():
            if name == "blockhammer":
                continue
            mech = create_mechanism(name, CFG, nrh=32)
            hammer(mech, 5, 200, step=1)
            assert mech.activation_floor(coord(5)) == 0, name

    def test_interval_grows_as_nrh_shrinks(self):
        assert BlockHammer(CFG, nrh=64).min_activation_interval > BlockHammer(
            CFG, nrh=4096).min_activation_interval

    def test_window_rotation_expires_old_counts(self):
        mech = BlockHammer(CFG, nrh=32)
        hammer(mech, 5, mech.blacklist_threshold, step=1)
        half = mech.window_cycles // 2
        mech.tick(half + 1)
        mech.tick(2 * half + 1)
        assert not mech.is_blacklisted(coord(5))

    def test_history_buffer_grows_as_nrh_shrinks(self):
        assert BlockHammer(CFG, nrh=64).history_buffer_bytes() >= BlockHammer(
            CFG, nrh=4096).history_buffer_bytes()


class TestRegistry:
    def test_all_paper_mechanisms_available(self):
        names = available_mechanisms()
        for name in PAIRED_MECHANISMS + ["blockhammer", "none"]:
            assert name in names

    def test_create_by_name(self):
        mech = create_mechanism("graphene", CFG, nrh=128)
        assert isinstance(mech, Graphene)
        assert mech.nrh == 128

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            create_mechanism("unknown", CFG, nrh=128)

    def test_register_custom_mechanism(self):
        class Custom(NoMitigation):
            name = "custom_test"

        register_mechanism("custom_test", lambda cfg, nrh: Custom(cfg),
                           overwrite=True)
        assert isinstance(create_mechanism("custom_test", CFG, nrh=5), Custom)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_mechanism("para", Para)

    def test_nrh_sweep_matches_paper(self):
        assert NRH_SWEEP == [4096, 2048, 1024, 512, 256, 128, 64]

    def test_kwargs_forwarded(self):
        mech = create_mechanism("para", CFG, nrh=64, probability=0.5)
        assert mech.probability == 0.5
