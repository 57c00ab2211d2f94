"""Tests for traces and the trace-driven core model."""

import random

import pytest

from repro.cpu.core_model import Core, CoreConfig
from repro.cpu.trace import FLAG_BYPASS, FLAG_WRITE, Trace, TraceEntry
from repro.dram.address import AddressMapper, MappingScheme
from repro.dram.config import DeviceConfig
from repro.workloads.attacker import generate_attacker_trace
from repro.workloads.dma import DmaConfig, generate_dma_trace
from repro.workloads.synthetic import generate_intensity_trace


def random_trace(seed: int, entries: int) -> Trace:
    rng = random.Random(seed)
    bubbles = [rng.randrange(0, 500) for _ in range(entries)]
    addresses = [rng.randrange(0, 1 << 48) for _ in range(entries)]
    flags = [rng.randrange(0, 4) for _ in range(entries)]
    return Trace.from_columns(bubbles, addresses, flags,
                              name=f"random_{seed}",
                              loop=bool(seed % 2))


def text_round_trip_inputs():
    """Traces whose columns must survive ``Trace.dump`` -> ``Trace.load``:
    random columns, one entry, each column's extreme values, and the
    generated benign, attacker and DMA workloads."""

    traces = [random_trace(seed, random.Random(1_000 + seed).randrange(1, 400))
              for seed in range(10)]
    traces.append(Trace([TraceEntry(0, 0x40, is_write=True)], name="one",
                        loop=False))
    traces.append(Trace.from_columns(
        [0, 2**62, 2**63 - 1], [0, 2**63 - 1, 2**64 - 1], [0, 3, 1],
        name="extremes"))
    traces.append(generate_intensity_trace("H", seed=3, entries=300))
    traces.append(generate_attacker_trace())
    traces.append(generate_dma_trace(DmaConfig(entries=250, seed=5)))
    return traces


class TestTraceEntry:
    def test_instruction_count(self):
        assert TraceEntry(5, 0x100).instructions == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceEntry(-1, 0)
        with pytest.raises(ValueError):
            TraceEntry(0, -4)


class TestTrace:
    def make(self):
        return Trace([
            TraceEntry(2, 0, False),
            TraceEntry(0, 64, True),
            TraceEntry(1, 128, False, bypass_cache=True),
        ], name="demo")

    def test_lengths_and_totals(self):
        trace = self.make()
        assert len(trace) == 3
        assert trace.memory_accesses == 3
        assert trace.total_instructions == 2 + 1 + 0 + 1 + 1 + 1
        assert trace.write_fraction == pytest.approx(1 / 3)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace([], name="empty")

    def test_round_trip_through_text_format(self, tmp_path):
        trace = self.make()
        path = tmp_path / "trace.txt"
        trace.dump(path)
        loaded = Trace.load(path)
        assert len(loaded) == 3
        assert loaded[1].is_write
        assert loaded[2].bypass_cache
        assert loaded[0].address == 0
        for index, trace in enumerate(text_round_trip_inputs()):
            path = tmp_path / f"input{index}.txt"
            trace.dump(path)
            loaded = Trace.load(path, name=trace.name, loop=trace.loop)
            bubbles, addresses, flags = loaded.columns
            assert list(bubbles) == list(trace.columns[0]), trace.name
            assert list(addresses) == list(trace.columns[1]), trace.name
            assert bytes(flags) == bytes(trace.columns[2]), trace.name

    def test_parse_skips_comments_and_blanks(self):
        text = ["# header", "", "3 128 R", "0 0x40 W"]
        trace = Trace.parse(text)
        assert len(trace) == 2
        assert trace[1].address == 0x40
        assert trace[1].is_write

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match=r"\bline 1\b"):
            Trace.parse(["garbage"])
        for bad in (
            "3 0x40 X",                    # unknown kind
            "3 0x40 WRONG",
            "3 0x40 R!!",
            "3 0x40 w",                    # kinds are upper case
            "3 0x40 R 7",                  # a fourth field
            "1.5 0x40 R",                  # not an integer
            "3 zebra R",
            "3 18446744073709551616 R",    # address over 64 bits
            "9223372036854775808 0x40 R",  # bubble over the signed column
        ):
            with pytest.raises(ValueError, match=r"\bline 2\b"):
                Trace.parse(["0 0x0 R", bad])

    def test_characterize_counts_rows(self):
        cfg = DeviceConfig.tiny()
        mapper = AddressMapper(cfg, MappingScheme.MOP)
        address = mapper.address_for_row(0, 0, 0, 0, 3)
        entries = [TraceEntry(0, address) for _ in range(100)]
        trace = Trace(entries, name="hot")
        stats = trace.characterize(mapper)
        assert stats.distinct_rows == 1
        assert stats.rows_over_64 == 1
        assert stats.rows_over_512 == 0
        assert stats.rbmpki == pytest.approx(1000.0)

        # Rows 0-4 get 513, 129, 65, 64 and 1 accesses, in that order; each
        # access to row 0 follows 1 bubble and each to row 1 follows 9.  A
        # row is "over N" only with more than N accesses.
        blocks = [(513, 1), (129, 9), (65, 0), (64, 0), (1, 0)]
        entries = [
            TraceEntry(bubble, mapper.address_for_row(0, 0, 0, 0, row))
            for row, (count, bubble) in enumerate(blocks)
            for _ in range(count)
        ]
        trace = Trace(entries, name="thresholds")
        # window_entries -> (accesses, instructions, distinct rows,
        #                    rows over 512, over 128, over 64)
        expected = {
            None: (772, 2446, 5, 1, 2, 3),
            1: (1, 2, 1, 0, 0, 0),
            512: (512, 1024, 1, 0, 1, 1),
            642: (642, 2316, 2, 1, 2, 2),
        }
        for window, counts in expected.items():
            stats = trace.characterize(mapper, window_entries=window)
            assert (stats.memory_accesses, stats.instructions,
                    stats.distinct_rows, stats.rows_over_512,
                    stats.rows_over_128, stats.rows_over_64) == counts
            assert stats.rbmpki == 1000.0 * counts[0] / counts[1]


class TestColumnarStorage:
    """The array-backed columns must agree entry-for-entry with the
    object/text views, including derived statistics."""

    def make(self) -> Trace:
        entries = [
            TraceEntry(2, 0, False),
            TraceEntry(0, 64, True),
            TraceEntry(1, 128, False, bypass_cache=True),
            TraceEntry(7, 0x1000, True, bypass_cache=True),
        ]
        return Trace(entries, name="columnar", loop=False)

    def test_from_columns_matches_entry_construction(self):
        reference = self.make()
        bubbles, addresses, flags = reference.columns
        rebuilt = Trace.from_columns(bubbles, addresses, flags,
                                     name="columnar", loop=False)
        assert list(rebuilt) == list(reference)
        assert rebuilt.total_instructions == reference.total_instructions
        assert rebuilt.write_fraction == reference.write_fraction

    def test_pickle_ships_columns_and_round_trips(self):
        import pickle

        trace = self.make()
        state = trace.__getstate__()
        assert set(state) == {"name", "loop", "bubbles", "addresses", "flags"}
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.name == trace.name
        assert clone.loop == trace.loop
        assert list(clone) == list(trace)

    def test_generator_input_materialised_once(self):
        entries = [TraceEntry(1, 64), TraceEntry(0, 128, True)]
        trace = Trace(entry for entry in entries)
        assert len(trace) == 2
        assert list(trace) == entries

    def test_from_columns_copies_buffers(self):
        from array import array

        bubbles = array("q", [1, 2])
        addresses = array("Q", [0, 64])
        flags = bytearray(b"\x00\x01")
        trace = Trace.from_columns(bubbles, addresses, flags)
        bubbles.append(9)
        flags[0] = 0xFF
        assert len(trace) == 2
        assert trace[0].is_write is False

    def test_from_columns_validates(self):
        with pytest.raises(ValueError):
            Trace.from_columns([1, 2], [0], b"\x00\x00")  # ragged columns
        with pytest.raises(ValueError):
            Trace.from_columns([], [], b"")  # empty trace
        with pytest.raises(ValueError):
            Trace.from_columns([-1], [0], b"\x00")  # negative bubble

    def test_parse_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            Trace.parse(["-1 64 R"])


class TestEmptyTraces:
    """Empty traces are rejected consistently at every construction path."""

    def test_constructor_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one entry"):
            Trace([])

    def test_from_columns_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one entry"):
            Trace.from_columns([], [], [])

    def test_parse_rejects_comment_only_input(self):
        with pytest.raises(ValueError, match="at least one entry"):
            Trace.parse(["# only comments", ""])


class TestTraceCursor:
    def test_looping_cursor_wraps(self):
        trace = Trace([TraceEntry(0, 0), TraceEntry(0, 64)], loop=True)
        cursor = trace.cursor()
        indices = [cursor.advance() for _ in range(5)]
        assert indices == [0, 1, 0, 1, 0]
        assert cursor.wraps == 2
        assert not cursor.exhausted

    def test_non_looping_cursor_exhausts(self):
        trace = Trace([TraceEntry(0, 0)], loop=False)
        cursor = trace.cursor()
        assert cursor.advance() == 0
        assert cursor.advance() is None
        assert cursor.exhausted


class AlwaysAccept:
    """A memory hierarchy stub that accepts everything instantly."""

    def __init__(self):
        self.sent = []

    def __call__(self, core, address, flags):
        self.sent.append((address, flags))
        return True


class TestCoreModel:
    def test_bubbles_retire_at_issue_width(self):
        trace = Trace([TraceEntry(10, 0)], loop=False)
        sink = AlwaysAccept()
        core = Core(0, trace, CoreConfig(issue_width=4))
        issued = core.tick(0, sink)
        assert issued == 4
        assert core.stats.retired_instructions == 4

    def test_memory_access_sent_and_load_tracked(self):
        trace = Trace([TraceEntry(0, 0x40)], loop=False)
        sink = AlwaysAccept()
        core = Core(0, trace)
        core.tick(0, sink)
        assert len(sink.sent) == 1
        assert core.outstanding_loads == 1
        core.on_data_returned(5)
        assert core.outstanding_loads == 0
        assert core.stats.retired_memory_accesses == 1

    def test_access_sent_with_its_address_and_flag_byte(self):
        trace = Trace([TraceEntry(0, 0x40), TraceEntry(0, 0x80, True),
                       TraceEntry(0, 0xC0, False, bypass_cache=True),
                       TraceEntry(0, 0x100, True, bypass_cache=True)],
                      loop=False)
        sink = AlwaysAccept()
        Core(0, trace).tick(0, sink)
        assert sink.sent == [(0x40, 0), (0x80, FLAG_WRITE),
                             (0xC0, FLAG_BYPASS),
                             (0x100, FLAG_WRITE | FLAG_BYPASS)]

    def test_store_retires_immediately(self):
        trace = Trace([TraceEntry(0, 0x40, True)], loop=False)
        core = Core(0, trace)
        core.tick(0, AlwaysAccept())
        assert core.outstanding_loads == 0
        assert core.stats.issued_stores == 1
        assert core.stats.retired_instructions == 1

    def test_rejection_stalls_core(self):
        trace = Trace([TraceEntry(0, 0x40)], loop=True)
        core = Core(0, trace)
        core.tick(0, lambda c, address, flags: False)
        assert core.stats.stall_cycles_reject == 1
        assert core.outstanding_loads == 0
        # Retrying eventually succeeds once the hierarchy accepts (the
        # looping trace lets the core issue up to issue_width loads).
        core.tick(1, AlwaysAccept())
        assert core.outstanding_loads >= 1

    def test_window_limit_stalls_core(self):
        trace = Trace([TraceEntry(0, 64 * i) for i in range(300)], loop=True)
        core = Core(0, trace, CoreConfig(instruction_window=2))
        sink = AlwaysAccept()
        for cycle in range(5):
            core.tick(cycle, sink)
        assert core.outstanding_loads == 2
        assert core.stats.stall_cycles_window >= 1

    def test_non_looping_trace_finishes(self):
        trace = Trace([TraceEntry(0, 0x40)], loop=False)
        core = Core(0, trace)
        sink = AlwaysAccept()
        core.tick(0, sink)
        core.tick(1, sink)
        assert core.finished
        assert core.finish_cycle in (0, 1)
        assert core.tick(2, sink) == 0  # a finished core issues nothing

    def test_ipc_and_reached(self):
        trace = Trace([TraceEntry(3, 0x40)], loop=True)
        core = Core(0, trace)
        sink = AlwaysAccept()
        for cycle in range(10):
            core.tick(cycle, sink)
        assert core.ipc(10) > 0
        assert core.ipc(0) == 0.0

    def test_data_return_without_outstanding_load_raises(self):
        trace = Trace([TraceEntry(0, 0)], loop=True)
        core = Core(0, trace)
        with pytest.raises(RuntimeError):
            core.on_data_returned(0)

    def test_missing_send_function_raises(self):
        # A core holds no send function: every tick is handed one.
        trace = Trace([TraceEntry(0, 0)], loop=True)
        core = Core(0, trace)
        assert not hasattr(core, "send")
        with pytest.raises(TypeError):
            core.tick(0)
        with pytest.raises(TypeError):
            Core(0, trace, send=AlwaysAccept())

    def test_snapshot_contains_progress(self):
        trace = Trace([TraceEntry(1, 0)], loop=True)
        core = Core(3, trace)
        core.tick(0, AlwaysAccept())
        snap = core.snapshot()
        assert snap["core_id"] == 3
        assert snap["retired_instructions"] >= 1
