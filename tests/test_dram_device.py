"""Tests for rank/channel composition and rank-level timing."""

import pickle

import pytest

from repro.dram.commands import Command, CommandType
from repro.dram.config import DeviceConfig
from repro.dram.device import Channel, Rank


@pytest.fixture()
def rank():
    return Rank(DeviceConfig.tiny())


@pytest.fixture()
def channel():
    return Channel(DeviceConfig.tiny())


def act(bg=0, ba=0, row=1, rank_=0):
    return Command(CommandType.ACT, rank=rank_, bank_group=bg, bank=ba, row=row)


class TestRankTiming:
    def test_trrd_between_banks_same_group(self, rank):
        t = rank.timing
        rank.issue(act(bg=0, ba=0), 0)
        nxt = act(bg=0, ba=1)
        assert not rank.ready(nxt, t.trrd_l - 1)
        assert rank.ready(nxt, t.trrd_l)

    def test_trrd_short_across_bank_groups(self, rank):
        t = rank.timing
        rank.issue(act(bg=0, ba=0), 0)
        nxt = act(bg=1, ba=0)
        assert not rank.ready(nxt, t.trrd_s - 1)
        assert rank.ready(nxt, t.trrd_s)

    def test_four_activate_window(self):
        cfg = DeviceConfig.tiny(bank_groups=4, banks_per_group=2)
        rank = Rank(cfg)
        t = rank.timing
        cycle = 0
        issue_cycles = []
        # Four ACTs to four different banks, as fast as tRRD allows.
        for bg in range(4):
            command = act(bg=bg, ba=0)
            while not rank.ready(command, cycle):
                cycle += 1
            rank.issue(command, cycle)
            issue_cycles.append(cycle)
        fifth = act(bg=0, ba=1, row=50)  # a fifth, still-closed bank
        window_opens = issue_cycles[0] + t.tfaw
        if window_opens > issue_cycles[-1] + t.trrd_l:
            # The fifth ACT is limited by tFAW, not tRRD.
            assert not rank.ready(fifth, window_opens - 1)
        assert rank.ready(fifth, max(window_opens,
                                     issue_cycles[-1] + t.trrd_l))

    def test_refresh_blocks_whole_rank(self, rank):
        t = rank.timing
        ref = Command(CommandType.REF)
        assert rank.ready(ref, 0)
        done = rank.issue(ref, 0)
        assert done == t.trfc
        assert not rank.ready(act(), t.trfc - 1)
        assert rank.ready(act(), t.trfc)
        assert rank.total_refreshes == 1

    def test_refresh_requires_all_banks_closed(self, rank):
        rank.issue(act(bg=0, ba=0), 0)
        assert not rank.ready(Command(CommandType.REF), 5)

    def test_activation_counter(self, rank):
        rank.issue(act(bg=0, ba=0), 0)
        cycle = rank.timing.trrd_s
        rank.issue(act(bg=1, ba=0), cycle)
        assert rank.total_activations == 2

    def test_stats_aggregate_banks(self, rank):
        rank.issue(act(bg=0, ba=0), 0)
        stats = rank.stats()
        assert stats["activations"] == 1
        assert "rank_refreshes" in stats


class TestChannel:
    def test_data_bus_serialises_column_commands(self, channel):
        t = channel.timing
        channel.issue(act(bg=0, ba=0, row=1), 0)
        channel.issue(act(bg=1, ba=0, row=1), t.trrd_s)
        rd0 = Command(CommandType.RD, bank_group=0, bank=0, row=1, column=0)
        rd1 = Command(CommandType.RD, bank_group=1, bank=0, row=1, column=0)
        start = max(t.trcd, t.trrd_s + t.trcd)
        channel.issue(rd0, start)
        assert not channel.ready(rd1, start + 1)
        assert channel.ready(rd1, start + t.tbl)

    def test_commands_issued_histogram(self, channel):
        channel.issue(act(), 0)
        assert channel.commands_issued[CommandType.ACT] == 1

    def test_issue_checks_readiness(self, channel):
        channel.issue(act(bg=0, ba=0), 0)
        with pytest.raises(RuntimeError):
            channel.issue(act(bg=0, ba=1), 0)  # violates tRRD

    def test_total_activations_across_ranks(self):
        cfg = DeviceConfig.tiny(ranks=2)
        channel = Channel(cfg)
        channel.issue(act(rank_=0), 0)
        channel.issue(act(rank_=1), 1)  # different rank: no tRRD constraint
        assert channel.total_activations() == 2

    def test_rank_isolation_for_refresh(self):
        cfg = DeviceConfig.tiny(ranks=2)
        channel = Channel(cfg)
        done = channel.issue(Command(CommandType.REF, rank=0), 0)
        # Rank 1 can still activate while rank 0 refreshes.
        assert channel.ready(act(rank_=1), 1)
        assert done == channel.timing.trfc


def test_command_types_hash_by_identity():
    """The issue counts, energy records and bank handlers key dicts by
    command type on every issue; the members hash in C, not through the
    Python-level ``Enum.__hash__``, and behave as before otherwise."""

    assert CommandType.__hash__ is object.__hash__
    for kind in CommandType:
        assert hash(kind) == object.__hash__(kind)
        assert CommandType(kind.value) is kind
        assert pickle.loads(pickle.dumps(kind)) is kind
    counts = {kind: 0 for kind in CommandType}
    assert list(counts) == list(CommandType)
    assert len(CommandType) == 9
    channel = Channel(DeviceConfig.tiny())
    channel.issue(act(), 0)
    assert channel.commands_issued[CommandType.ACT] == 1
