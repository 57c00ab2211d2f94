"""RunCache integrity: torn, truncated, and corrupted entries are misses.

The on-disk cache is shared by parallel sweep workers and repeat
invocations; a crashing host or a partially synced filesystem can leave an
entry file in *any* byte state.  The contract pinned here: ``get`` never
raises and never serves damaged data — the frame check (magic + length +
CRC32) classifies the entry as a miss, the dead file is removed, and a
recompute + ``put`` atomically restores it.  ``stats()`` reports those
counters together with the on-disk entry count.
"""

from __future__ import annotations

import dataclasses
import struct

import pytest

from repro.analysis.runcache import (
    CACHE_FORMAT_VERSION,
    RunCache,
    frame_payload,
    unframe_payload,
)
from repro.api import ExperimentSpec, Session
from repro.sim.stats import RunStatistics

KEY = ("MMLA", 0, "para", 64, True, 800, 1_000, 2_000, "fast")


def make_stats() -> RunStatistics:
    return RunStatistics(
        cycles=1_234,
        ipc_by_thread={0: 1.5, 1: 0.25},
        read_latencies=[10, 22, 31],
        activations=77,
    )


@pytest.fixture()
def cache(tmp_path) -> RunCache:
    return RunCache(tmp_path, "fingerprint")


class TestFrame:
    def test_round_trip(self):
        payload = b"hello payload"
        assert unframe_payload(frame_payload(payload)) == payload

    def test_rejects_truncation_everywhere(self):
        framed = frame_payload(b"x" * 64)
        for cut in range(len(framed)):
            assert unframe_payload(framed[:cut]) is None

    def test_rejects_flipped_payload_byte(self):
        framed = bytearray(frame_payload(b"y" * 32))
        framed[-1] ^= 0xFF
        assert unframe_payload(bytes(framed)) is None

    def test_rejects_foreign_magic(self):
        framed = b"NOPE" + frame_payload(b"z")[4:]
        assert unframe_payload(framed) is None

    def test_rejects_trailing_garbage(self):
        assert unframe_payload(frame_payload(b"q") + b"extra") is None


class TestCorruptEntries:
    def test_partial_write_is_a_miss_then_recomputed(self, cache):
        """The satellite scenario: a torn write followed by recovery."""

        stats = make_stats()
        cache.put(KEY, stats)
        path = cache._path(KEY)
        intact = path.read_bytes()
        # Inject a partial write: the first half of the entry only, as a
        # crashed non-atomic writer (or torn network filesystem) leaves it.
        path.write_bytes(intact[: len(intact) // 2])

        assert cache.get(KEY) is None
        assert cache.misses == 1
        assert cache.corrupt_entries == 1
        assert not path.exists()  # the dead entry was removed

        # Recompute + atomic rewrite restores the entry.
        cache.put(KEY, stats)
        reloaded = cache.get(KEY)
        assert reloaded is not None
        assert dataclasses.asdict(reloaded) == dataclasses.asdict(stats)

    @pytest.mark.parametrize("damage", [
        b"",  # zero-length file (crash between create and write)
        b"\x00" * 7,  # shorter than the frame header
        b"garbage that is not a cache entry at all........",
        struct.pack("<4sIQ", b"RCHE", 0, 10) + b"short",  # length lies
    ], ids=["empty", "short-header", "garbage", "bad-length"])
    def test_damaged_entry_shapes_are_misses(self, cache, damage):
        cache.put(KEY, make_stats())
        path = cache._path(KEY)
        path.write_bytes(damage)
        assert cache.get(KEY) is None
        assert cache.corrupt_entries == 1

    def test_crc_catches_silent_bit_flip(self, cache):
        cache.put(KEY, make_stats())
        path = cache._path(KEY)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01  # one flipped bit inside the payload
        path.write_bytes(bytes(data))
        assert cache.get(KEY) is None
        assert cache.corrupt_entries == 1

    def test_intact_frame_with_undecodable_payload_is_a_miss(self, cache):
        path = cache._path(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A perfectly framed payload that is not a RunStatistics pickle.
        path.write_bytes(frame_payload(b"not a pickle"))
        assert cache.get(KEY) is None

    def test_intact_entry_hits_and_survives(self, cache):
        stats = make_stats()
        cache.put(KEY, stats)
        assert cache.get(KEY) is not None
        assert cache.hits == 1
        assert cache.misses == 0
        assert cache.corrupt_entries == 0

    def test_corruption_counts_surface_in_stats(self, cache):
        cache.put(KEY, make_stats())
        cache._path(KEY).write_bytes(b"junk")
        cache.get(KEY)
        assert cache.stats()["corrupt_entries"] == 1

    def test_format_version_namespaces_entries(self, tmp_path):
        """Framed entries live under a v2 namespace: caches written by the
        unframed v1 format can never be read (or aliased) by this code."""

        cache = RunCache(tmp_path, "abc123")
        assert cache.fingerprint == f"v{CACHE_FORMAT_VERSION}-abc123"
        assert CACHE_FORMAT_VERSION >= 2


class TestRunCacheStats:
    def test_counters_and_entry_count(self, tmp_path):
        with Session(ExperimentSpec.tiny(),
                     cache_dir=str(tmp_path)) as session:
            session.run("MMLA", "para", 64)
            stats = session.cache.stats()
        assert stats["entries"] == 1
        assert stats["writes"] == 1
        assert stats["misses"] >= 1
        assert stats["corrupt_entries"] == 0

    def test_entry_count_tracks_directory(self, tmp_path):
        cache = RunCache(tmp_path, "finger")
        assert cache.stats()["entries"] == 0
        assert cache.get(("k",)) is None  # miss on empty
        assert cache.stats()["misses"] == 1
        assert cache.stats()["directory"].endswith("finger")
