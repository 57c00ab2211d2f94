"""Tests for physical-address to DRAM-coordinate mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.address import AddressMapper, DramAddress, MappingScheme
from repro.dram.config import DeviceConfig


@pytest.fixture(params=list(MappingScheme))
def mapper(request):
    return AddressMapper(DeviceConfig.tiny(), request.param)


class TestMappingBasics:
    def test_coordinates_within_bounds(self, mapper):
        cfg = mapper.config
        for line in range(0, 4096, 7):
            coord = mapper.map(line * cfg.cacheline_bytes)
            assert 0 <= coord.channel < cfg.channels
            assert 0 <= coord.rank < cfg.ranks
            assert 0 <= coord.bank_group < cfg.bank_groups
            assert 0 <= coord.bank < cfg.banks_per_group
            assert 0 <= coord.row < cfg.rows_per_bank
            assert 0 <= coord.column < cfg.cachelines_per_row

    def test_same_address_maps_identically(self, mapper):
        assert mapper.map(0x1234 * 64) == mapper.map(0x1234 * 64)

    def test_sub_line_offsets_map_to_same_line(self, mapper):
        assert mapper.map(128) == mapper.map(128 + 63)

    def test_address_for_row_round_trip(self, mapper):
        cfg = mapper.config
        address = mapper.address_for_row(0, 0, 1, 1, 17, column=3)
        coord = mapper.map(address)
        assert coord.rank == 0
        assert coord.bank_group == 1
        assert coord.bank == 1
        assert coord.row == 17

    def test_row_key_and_bank_key(self):
        coord = DramAddress(0, 1, 2, 1, 33, 4)
        assert coord.bank_key == (0, 1, 2, 1)
        assert coord.row_key == (0, 1, 2, 1, 33)


class TestMopProperties:
    def test_mop_keeps_consecutive_lines_in_same_row(self):
        cfg = DeviceConfig.tiny()
        mapper = AddressMapper(cfg, MappingScheme.MOP)
        coords = [mapper.map(i * cfg.cacheline_bytes) for i in range(4)]
        rows = {c.row_key for c in coords}
        assert len(rows) == 1  # one MOP block stays in one row

    def test_mop_spreads_blocks_across_banks(self):
        cfg = DeviceConfig.tiny()
        mapper = AddressMapper(cfg, MappingScheme.MOP)
        coords = [mapper.map(i * 4 * cfg.cacheline_bytes) for i in range(8)]
        banks = {c.bank_key for c in coords}
        assert len(banks) > 1


@settings(max_examples=200, deadline=None)
@given(line=st.integers(min_value=0, max_value=10 ** 7),
       scheme=st.sampled_from(list(MappingScheme)))
def test_map_reverse_is_bijective(line, scheme):
    """reverse(map(addr)) must reproduce the address's cacheline (property)."""

    cfg = DeviceConfig.tiny()
    mapper = AddressMapper(cfg, scheme)
    total_lines = cfg.capacity_bytes // cfg.cacheline_bytes
    line = line % total_lines
    address = line * cfg.cacheline_bytes
    coord = mapper.map(address)
    assert mapper.reverse(coord) == address


@settings(max_examples=100, deadline=None)
@given(
    rank=st.integers(min_value=0, max_value=0),
    bank_group=st.integers(min_value=0, max_value=1),
    bank=st.integers(min_value=0, max_value=1),
    row=st.integers(min_value=0, max_value=255),
    column=st.integers(min_value=0, max_value=7),
    scheme=st.sampled_from(list(MappingScheme)),
)
def test_address_for_row_targets_requested_row(rank, bank_group, bank, row,
                                               column, scheme):
    """address_for_row must land on the requested (bank, row) (property)."""

    cfg = DeviceConfig.tiny()
    mapper = AddressMapper(cfg, scheme)
    address = mapper.address_for_row(0, rank, bank_group, bank, row, column)
    coord = mapper.map(address)
    assert (coord.rank, coord.bank_group, coord.bank, coord.row) == (
        rank, bank_group, bank, row
    )
