"""The DRAM readiness rules, restated, against the device and the scan.

``Channel.kind_ready`` and ``Channel.kind_earliest_ready_cycle`` are built
on one set of timing floors, and the memory controller's request scan
reads those floors directly.  These tests drive random command histories
and check both against a restatement of the rules from raw bank and rank
state (blocks, tRRD, tFAW, data bus), and the scan's bounds against
``kind_earliest_ready_cycle``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.controller import MemoryController
from repro.controller.request import read_request, write_request
from repro.controller.scheduler import SchedulerDecision
from repro.dram.commands import Command, CommandType
from repro.dram.config import DeviceConfig
from repro.dram.device import Channel
from repro.mitigations.para import Para

KINDS = (CommandType.RD, CommandType.WR, CommandType.PRE, CommandType.ACT,
         CommandType.REF, CommandType.VRR, CommandType.RFM, CommandType.MIG,
         CommandType.PREA)
ROW_KINDS = (CommandType.ACT, CommandType.VRR, CommandType.MIG)


def _coordinates(config):
    return [(r, g, b) for r in range(config.ranks)
            for g in range(config.bank_groups)
            for b in range(config.banks_per_group)]


def _bank_rule(bank, kind):
    """(state admits kind, timing floor) from the bank's raw state."""

    blocked = bank._blocked_until
    is_open = bank.open_row is not None
    if kind in (CommandType.RD, CommandType.WR):
        return is_open, max(blocked, bank._next_rdwr)
    if kind in (CommandType.PRE, CommandType.PREA):
        return True, max(blocked, bank._next_pre)
    return not is_open, max(blocked, bank._next_act)


def reference_rule(channel, kind, rank_index, bank_group, bank_index):
    """(state admits kind, timing floor), restated without the floors'
    invariants: every block, spacing and window is applied explicitly."""

    rank = channel.ranks[rank_index]
    t = rank.timing
    if kind is CommandType.REF:
        rules = [_bank_rule(b, kind) for b in rank.iter_banks()]
        return all(ok for ok, _ in rules), max(f for _, f in rules)
    if kind is CommandType.PREA:
        floors = [_bank_rule(b, CommandType.PRE)[1]
                  for b in rank.iter_banks() if b.open_row is not None]
        return True, max([rank._blocked_until] + floors)
    ok, floor = _bank_rule(rank.banks[bank_group][bank_index], kind)
    floor = max(floor, rank._blocked_until)
    if kind is CommandType.ACT:
        if rank._last_act_cycle >= 0:
            spacing = (t.trrd_l if bank_group == rank._last_act_bank_group
                       else t.trrd_s)
            floor = max(floor, rank._last_act_cycle + spacing)
        history = rank._act_history
        if len(history) == history.maxlen:
            floor = max(floor, history[0] + t.tfaw)
    if kind.is_column_command:
        floor = max(floor, channel._data_bus_free_at)
    return ok, floor


def check_rules(channel, cycle):
    for kind in KINDS:
        for r, g, b in _coordinates(channel.config):
            ok, floor = reference_rule(channel, kind, r, g, b)
            ready = channel.kind_ready(kind, r, g, b, cycle)
            earliest = channel.kind_earliest_ready_cycle(kind, r, g, b, cycle)
            assert earliest == max(cycle, floor), (kind, r, g, b, cycle)
            assert ready == (ok and floor <= cycle), (kind, r, g, b, cycle)
            allows = channel.ranks[r].state_allows(kind, g, b)
            assert ready == (allows and earliest <= cycle)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 10 ** 6),
                                st.integers(0, 7)),
                      min_size=1, max_size=60))
def test_kind_ready_matches_the_rules_over_random_histories(steps):
    channel = Channel(DeviceConfig.tiny(ranks=2))
    cycle = 0
    for gap, choice, row in steps:
        cycle += gap
        check_rules(channel, cycle)
        ready = [(kind, r, g, b) for kind in KINDS
                 for r, g, b in _coordinates(channel.config)
                 if channel.kind_ready(kind, r, g, b, cycle)]
        if not ready:
            continue
        kind, r, g, b = ready[choice % len(ready)]
        channel.issue(Command(kind, rank=r, bank_group=g, bank=b,
                              row=row if kind in ROW_KINDS else None,
                              column=0), cycle)
    check_rules(channel, cycle)


def test_prea_waits_for_every_open_bank():
    channel = Channel(DeviceConfig.tiny())
    t = channel.timing
    channel.issue(Command(CommandType.ACT, bank_group=0, bank=0, row=1), 0)
    channel.issue(Command(CommandType.ACT, bank_group=1, bank=0, row=1),
                  t.trrd_s)
    # Bank (0, 0) may precharge first; PREA waits for bank (1, 0) too.
    earliest = channel.kind_earliest_ready_cycle(CommandType.PREA, 0, 0, 0, 0)
    assert earliest == t.trrd_s + t.tras
    assert not channel.kind_ready(CommandType.PREA, 0, 0, 0, earliest - 1)
    assert channel.kind_ready(CommandType.PREA, 0, 0, 0, earliest)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_floors_equal_kind_earliest_ready_cycle(seed):
    """Every failed scan attempt records the channel rule's bound."""

    rng = random.Random(seed)
    config = DeviceConfig.tiny(ranks=2)
    controller = MemoryController(config, mitigation=Para(config, nrh=64))
    channel, mapper = controller.channel, controller.mapper
    coordinates = _coordinates(config)
    checked = 0
    for cycle in range(1, 1500):
        for _ in range(rng.randrange(3)):
            r, g, b = rng.choice(coordinates)
            address = mapper.address_for_row(0, r, g, b, rng.randrange(4),
                                             column=rng.randrange(8))
            make = write_request if rng.random() < 0.2 else read_request
            controller.enqueue(make(address, thread_id=rng.randrange(4)))
        controller.tick(cycle)
        for queue in (controller.read_queue, controller.write_queue):
            for request in list(queue):
                coord = request.coordinate
                bank = channel.bank(coord.rank, coord.bank_group, coord.bank)
                if bank.open_row == coord.row:
                    kind = CommandType.WR if request.is_write \
                        else CommandType.RD
                elif bank.open_row is not None:
                    kind = CommandType.PRE
                else:
                    kind = CommandType.ACT
                location = (coord.rank, coord.bank_group, coord.bank)
                if channel.kind_ready(kind, *location, cycle):
                    continue  # the attempt would issue
                served, attempts, bound = controller._serve_first(
                    (SchedulerDecision(request, kind.is_column_command, ""),),
                    cycle,
                )
                assert not served and attempts == 1
                urgent = controller.refresh_manager.urgency(
                    coord.rank, cycle
                ) >= controller.REFRESH_PRIORITY_URGENCY
                if kind is CommandType.ACT and urgent:
                    assert bound == controller._NO_TIMING_BOUND
                else:
                    assert bound == channel.kind_earliest_ready_cycle(
                        kind, *location, cycle
                    )
                    checked += 1
    assert checked > 1000
