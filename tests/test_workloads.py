"""Tests for synthetic workload and attacker generation."""

import re

import pytest

from repro.api import ExperimentSpec
from repro.dram.address import AddressMapper, MappingScheme
from repro.dram.config import DeviceConfig
from repro.workloads.attacker import (
    ATTACK_PATTERNS,
    AttackerConfig,
    aggressor_rows,
    generate_attacker_trace,
)
from repro.workloads.characteristics import (
    PAPER_TABLE3,
    average_row,
    characterize_suite,
    characterize_trace,
)
from repro.workloads.dma import DmaConfig, generate_dma_trace
from repro.workloads.mixes import (
    ATTACK_MIXES,
    ATTACKER_LETTERS,
    BENIGN_MIXES,
    MIX_LETTER_SET,
    make_all_mixes,
    make_mix,
    mix_names,
    offset_trace,
)
from repro.workloads.synthetic import (
    BenignConfig,
    MemoryIntensity,
    generate_benign_trace,
    generate_intensity_trace,
)

DEVICE = DeviceConfig.ddr5_4800(rows_per_bank=4096)

#: The end of every unknown-letter message: the whole letter menu.
LETTER_MENU = re.escape(
    f"available letters: {', '.join(sorted(MIX_LETTER_SET))}") + "$"


class TestBenignGeneration:
    def test_trace_length_and_name(self):
        config = BenignConfig.for_intensity(MemoryIntensity.HIGH, entries=500)
        trace = generate_benign_trace(config, name="h0")
        assert len(trace) == 500
        assert trace.name == "h0"

    def test_reproducible_with_seed(self):
        a = generate_benign_trace(BenignConfig(seed=3, entries=200))
        b = generate_benign_trace(BenignConfig(seed=3, entries=200))
        assert [e.address for e in a] == [e.address for e in b]

    def test_different_seeds_differ(self):
        a = generate_benign_trace(BenignConfig(seed=1, entries=200))
        b = generate_benign_trace(BenignConfig(seed=2, entries=200))
        assert [e.address for e in a] != [e.address for e in b]

    def test_footprint_respected(self):
        config = BenignConfig(footprint_bytes=64 * 1024, entries=2000)
        trace = generate_benign_trace(config)
        assert max(e.address for e in trace) < 64 * 1024

    def test_intensity_ordering_memory_ratio(self):
        """H must be more memory-intensive than M, and M more than L."""

        def accesses_per_kiloinst(letter):
            trace = generate_intensity_trace(letter, entries=3000)
            return 1000 * trace.memory_accesses / trace.total_instructions

        assert accesses_per_kiloinst("H") > accesses_per_kiloinst("M")
        assert accesses_per_kiloinst("M") > accesses_per_kiloinst("L")

    def test_intensity_letter_parsing(self):
        assert MemoryIntensity.from_letter("h") is MemoryIntensity.HIGH
        with pytest.raises(ValueError):
            MemoryIntensity.from_letter("X")

    def test_benign_traces_are_cacheable(self):
        trace = generate_intensity_trace("M", entries=200)
        assert all(not e.bypass_cache for e in trace)


class TestAttackerGeneration:
    def test_attacker_targets_intended_rows(self):
        config = AttackerConfig(entries=2000, banks_used=4, rows_per_bank=2)
        trace = generate_attacker_trace(DEVICE, config)
        mapper = AddressMapper(DEVICE, MappingScheme.MOP)
        targets = set()
        for entry in trace:
            coord = mapper.map(entry.address)
            targets.add((coord.rank, coord.bank_group, coord.bank, coord.row))
        assert targets == set(aggressor_rows(DEVICE, config))

    def test_attacker_concentrates_on_few_rows(self):
        trace = generate_attacker_trace(DEVICE, AttackerConfig(entries=4000))
        stats = characterize_trace(trace, DEVICE)
        assert stats.distinct_rows <= 16
        assert stats.rows_over_128 >= 8

    def test_attacker_alternates_rows_within_bank(self):
        """Consecutive visits to a bank must target different rows
        (double-sided hammering forces an activation each time)."""

        config = AttackerConfig(entries=1000, banks_used=2, rows_per_bank=2)
        trace = generate_attacker_trace(DEVICE, config)
        mapper = AddressMapper(DEVICE, MappingScheme.MOP)
        last_row_by_bank = {}
        violations = 0
        for entry in trace:
            coord = mapper.map(entry.address)
            key = coord.bank_key
            if key in last_row_by_bank and last_row_by_bank[key] == coord.row:
                violations += 1
            last_row_by_bank[key] = coord.row
        assert violations == 0

    def test_attacker_bypasses_cache_by_default(self):
        trace = generate_attacker_trace(DEVICE, AttackerConfig(entries=100))
        assert all(e.bypass_cache for e in trace)

    def test_attacker_is_read_only_and_dense(self):
        trace = generate_attacker_trace(DEVICE, AttackerConfig(entries=100))
        assert all(not e.is_write for e in trace)
        assert all(e.bubble_count == 0 for e in trace)

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackerConfig(banks_used=0)
        with pytest.raises(ValueError):
            AttackerConfig(columns_per_row=0)


class TestAttackPatterns:
    """The ``A``/``S``/``X`` attacker geometries (double-sided,
    many-sided, half-double)."""

    def test_pattern_registry(self):
        assert set(ATTACK_PATTERNS) == {
            "double_sided", "many_sided", "half_double"}
        assert set(ATTACKER_LETTERS.values()) == set(ATTACK_PATTERNS)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="pattern"):
            AttackerConfig(pattern="rowpress")

    def test_patterns_produce_distinct_rows(self):
        rows = {
            pattern: tuple(aggressor_rows(
                DEVICE, AttackerConfig(pattern=pattern)))
            for pattern in ATTACK_PATTERNS
        }
        assert len(set(rows.values())) == len(ATTACK_PATTERNS)

    def test_traces_deterministic(self):
        for pattern in ATTACK_PATTERNS:
            config = AttackerConfig(pattern=pattern, seed=3)
            one = generate_attacker_trace(DEVICE, config)
            two = generate_attacker_trace(DEVICE, config)
            assert list(one.columns[1]) == list(two.columns[1])

    def test_mix_letters_build_tagged_traces(self):
        names = {}
        for letter in ("A", "S", "X"):
            mix = make_mix(f"MML{letter}", seed=1,
                           entries_per_core=200, attacker_entries=300)
            assert len(mix.attacker_threads) == 1
            names[letter] = mix.traces[-1].name
        assert names == {"A": "attacker_1", "S": "attacker_ms_1",
                         "X": "attacker_hd_1"}

    def test_make_mix_unknown_letter_message(self):
        with pytest.raises(ValueError, match=LETTER_MENU):
            make_mix("MMQZ", seed=1, entries_per_core=200,
                     attacker_entries=300)

    def test_new_attacker_letters_are_valid_attack_mixes(self):
        spec = ExperimentSpec.tiny(attack_mixes=("MMLS", "MMLX"))
        assert spec.attack_mixes == ("MMLS", "MMLX")


class TestMixes:
    def test_spec_unknown_letter_lists_letters(self):
        with pytest.raises(ValueError, match=LETTER_MENU):
            ExperimentSpec.tiny(benign_mixes=("MMQZ",))

    def test_canonical_mix_lists(self):
        assert len(BENIGN_MIXES) == 6
        assert len(ATTACK_MIXES) == 6
        assert mix_names(True) == ATTACK_MIXES
        assert mix_names(False) == BENIGN_MIXES

    def test_attack_mix_structure(self):
        mix = make_mix("HHMA", device=DEVICE, entries_per_core=500,
                       attacker_entries=500)
        assert mix.num_cores == 4
        assert mix.attacker_threads == [3]
        assert mix.benign_threads == [0, 1, 2]
        assert mix.has_attacker

    def test_benign_mix_has_no_attacker(self):
        mix = make_mix("MMLL", device=DEVICE, entries_per_core=500)
        assert not mix.has_attacker
        assert mix.benign_threads == [0, 1, 2, 3]

    def test_benign_cores_use_disjoint_address_regions(self):
        mix = make_mix("HHMM", device=DEVICE, entries_per_core=500,
                       region_bytes=1 << 26)
        ranges = []
        for trace in mix.traces:
            addresses = [e.address for e in trace]
            ranges.append((min(addresses), max(addresses)))
        for i in range(len(ranges)):
            for j in range(i + 1, len(ranges)):
                lo1, hi1 = ranges[i]
                lo2, hi2 = ranges[j]
                assert hi1 < lo2 or hi2 < lo1

    def test_seed_varies_benign_traces(self):
        mix_a = make_mix("MMLL", device=DEVICE, entries_per_core=300, seed=0)
        mix_b = make_mix("MMLL", device=DEVICE, entries_per_core=300, seed=1)
        assert [e.address for e in mix_a.traces[0]] != [
            e.address for e in mix_b.traces[0]
        ]

    def test_offset_trace_shifts_addresses(self):
        mix = make_mix("LLLL", device=DEVICE, entries_per_core=100)
        shifted = offset_trace(mix.traces[0], 4096)
        assert shifted[0].address == mix.traces[0][0].address + 4096

    def test_make_all_mixes(self):
        result = make_all_mixes(True, device=DEVICE, seeds=(0,),
                                entries_per_core=100, attacker_entries=100)
        assert set(result) == set(ATTACK_MIXES)
        assert all(len(v) == 1 for v in result.values())

    def test_dma_letter_places_stream_in_own_region(self):
        mix = make_mix("HDMA", device=DEVICE, entries_per_core=400,
                       attacker_entries=400, region_bytes=1 << 26)
        assert mix.attacker_threads == [3]  # D is not an attacker
        dma_trace = mix.traces[1]
        assert dma_trace.name == "D1_0"
        assert len(dma_trace) == 400
        # Every access bypasses the cache, and the stream lives in core 1's
        # region (disjoint from core 0's, like any benign process).
        assert all(entry.bypass_cache for entry in dma_trace)
        addresses = [entry.address for entry in dma_trace]
        assert min(addresses) >= 2 * (1 << 26)
        assert max(addresses) < 3 * (1 << 26)


class TestDmaGeneration:
    def test_streaming_bursts_and_write_mix(self):
        trace = generate_dma_trace(DmaConfig(entries=64, burst_lines=8,
                                             gap_bubbles=5, seed=1))
        assert len(trace) == 64
        # Intra-burst accesses are back to back; burst starts carry the gap.
        assert trace[0].bubble_count == 0
        assert trace[8].bubble_count == 5
        assert trace[9].bubble_count == 0
        # Consecutive accesses stream through adjacent cachelines.
        assert trace[1].address - trace[0].address == 64
        assert 0.0 < trace.write_fraction < 1.0

    def test_pure_fill_and_pure_copy_streams(self):
        fill = generate_dma_trace(DmaConfig(entries=32, write_fraction=1.0))
        copy = generate_dma_trace(DmaConfig(entries=32, write_fraction=0.0))
        assert fill.write_fraction == 1.0
        assert copy.write_fraction == 0.0

    def test_deterministic_from_seed(self):
        a = generate_dma_trace(DmaConfig(entries=100, seed=3))
        b = generate_dma_trace(DmaConfig(entries=100, seed=3))
        c = generate_dma_trace(DmaConfig(entries=100, seed=4))
        assert [e.address for e in a] == [e.address for e in b]
        assert [e.address for e in a] != [e.address for e in c]

    @pytest.mark.parametrize("bad", [
        dict(entries=0),
        dict(burst_lines=0),
        dict(cacheline_bytes=0),
        dict(gap_bubbles=-1),
        dict(buffer_bytes=32),
        dict(write_fraction=1.5),
    ], ids=["entries", "burst", "cacheline", "gap", "buffer", "writes"])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            DmaConfig(**bad)


class TestCharacterisation:
    def test_table3_shape(self):
        traces = [generate_intensity_trace(letter, entries=2000)
                  for letter in "HML"]
        rows = characterize_suite(traces, DEVICE)
        assert len(rows) == 3
        assert rows[0].rbmpki >= rows[-1].rbmpki  # sorted descending
        table_row = rows[0].as_row()
        assert set(table_row) == {"Workload", "RBMPKI", "ACT-512+",
                                  "ACT-128+", "ACT-64+"}

    def test_attacker_has_hot_rows_in_table3_sense(self):
        trace = generate_attacker_trace(DEVICE, AttackerConfig(entries=16000))
        stats = characterize_trace(trace, DEVICE)
        assert stats.rows_over_512 >= 1
        assert stats.rows_over_128 >= 8

    def test_average_row(self):
        traces = [generate_intensity_trace("M", entries=1000, seed=s)
                  for s in range(3)]
        rows = characterize_suite(traces, DEVICE)
        avg = average_row(rows)
        assert avg["Workload"] == "Average"
        assert avg["RBMPKI"] > 0
        with pytest.raises(ValueError):
            average_row([])

    def test_paper_reference_rows_present(self):
        assert any(r["Workload"] == "429.mcf" for r in PAPER_TABLE3)
        assert len(PAPER_TABLE3) == 8
