"""mmap'd columnar traces and the workload spool.

Contracts pinned here:

* ``Trace.load_columnar(path, mmap=True)`` exposes the identical columns
  (and therefore identical entries, characteristics, and pickles) as the
  eager loader — the views are zero-copy over the mapping;
* a :class:`repro.workloads.spool.TraceSpool` round-trips a generated mix
  byte-identically, refuses mismatched parameters or fingerprints, and
  degrades to ``None`` (regeneration) on any damage;
* a runner pointed at a spool produces figures bit-identical to one that
  regenerates its traces;
* a session that fails to start removes the spool directory it created.
"""

from __future__ import annotations

import dataclasses
import pickle
import socket
import tempfile

import pytest

from repro.api import ExperimentSpec, Session
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.config import DeviceConfig
from repro.workloads.attacker import AttackerConfig
from repro.workloads.mixes import make_mix
from repro.workloads.spool import TraceSpool


def sample_trace(n: int = 64) -> Trace:
    entries = [
        TraceEntry(i % 7, 64 * i + (i % 3), is_write=i % 5 == 0,
                   bypass_cache=i % 11 == 0)
        for i in range(n)
    ]
    return Trace(entries, name="sample", loop=False)


def columns_bytes(trace: Trace):
    bubbles, addresses, flags = trace.columns
    return bytes(bubbles), bytes(addresses), bytes(flags)


class TestMmapLoad:
    def test_mmap_columns_identical_to_eager(self, tmp_path):
        path = tmp_path / "t.rtrc"
        trace = sample_trace()
        trace.dump_columnar(path)
        eager = Trace.load_columnar(path)
        mapped = Trace.load_columnar(path, mmap=True)
        assert columns_bytes(mapped) == columns_bytes(eager)
        assert mapped.name == eager.name == "sample"
        assert mapped.loop is eager.loop is False
        assert list(mapped.entries) == list(eager.entries)
        assert mapped._mmap is not None  # really the zero-copy path

    def test_mmap_trace_behaves_like_a_trace(self, tmp_path):
        path = tmp_path / "t.rtrc"
        trace = sample_trace()
        trace.dump_columnar(path)
        mapped = Trace.load_columnar(path, mmap=True)
        assert len(mapped) == len(trace)
        assert mapped.total_instructions == trace.total_instructions
        assert mapped.write_fraction == trace.write_fraction
        cursor = mapped.cursor()
        assert cursor.advance() == trace[0]

    def test_mmap_trace_characterizes_identically(self, tmp_path):
        from repro.dram.address import AddressMapper, MappingScheme

        mapper = AddressMapper(DeviceConfig.tiny(), MappingScheme.MOP)
        path = tmp_path / "t.rtrc"
        trace = sample_trace(200)
        trace.dump_columnar(path)
        mapped = Trace.load_columnar(path, mmap=True)
        for backend in ("scalar", "numpy"):
            assert mapped.characterize(mapper, backend=backend) \
                == trace.characterize(mapper, backend=backend)

    def test_mmap_trace_pickles_by_value(self, tmp_path):
        path = tmp_path / "t.rtrc"
        sample_trace().dump_columnar(path)
        mapped = Trace.load_columnar(path, mmap=True)
        clone = pickle.loads(pickle.dumps(mapped))
        assert columns_bytes(clone) == columns_bytes(mapped)
        assert clone._mmap is None  # the pickle carries bytes, not the map

    def test_mmap_rejects_truncation(self, tmp_path):
        path = tmp_path / "t.rtrc"
        sample_trace().dump_columnar(path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError, match="truncated"):
            Trace.load_columnar(path, mmap=True)
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="truncated"):
            Trace.load_columnar(path, mmap=True)

    def test_mmap_rejects_foreign_bytes(self, tmp_path):
        path = tmp_path / "t.rtrc"
        path.write_bytes(b"definitely not a columnar trace")
        with pytest.raises(ValueError, match="not a columnar trace"):
            Trace.load_columnar(path, mmap=True)


def tiny_mix(seed: int = 0):
    device = DeviceConfig.tiny()
    from repro.dram.address import MappingScheme

    return make_mix(
        "MMLA", device=device, mapping=MappingScheme.MOP,
        entries_per_core=200, attacker_entries=300, seed=seed,
        attacker_config=AttackerConfig(entries=300, seed=seed),
    )


class TestTraceSpool:
    PARAMS = dict(entries_per_core=200, attacker_entries=300,
                  fingerprint="fp-1")

    def test_round_trip_is_byte_identical(self, tmp_path):
        spool = TraceSpool(tmp_path)
        mix = tiny_mix()
        assert spool.dump_mix(mix, seed=0, **self.PARAMS) is True
        loaded = spool.load_mix("MMLA", seed=0, **self.PARAMS)
        assert loaded is not None
        assert loaded.attacker_threads == mix.attacker_threads
        assert [t.name for t in loaded.traces] == [t.name for t in mix.traces]
        for ours, theirs in zip(loaded.traces, mix.traces):
            assert columns_bytes(ours) == columns_bytes(theirs)
            assert ours.loop == theirs.loop

    def test_materialisation_is_idempotent(self, tmp_path):
        spool = TraceSpool(tmp_path)
        mix = tiny_mix()
        assert spool.dump_mix(mix, seed=0, **self.PARAMS) is True
        assert spool.dump_mix(mix, seed=0, **self.PARAMS) is False

    def test_parameter_mismatch_misses(self, tmp_path):
        spool = TraceSpool(tmp_path)
        spool.dump_mix(tiny_mix(), seed=0, **self.PARAMS)
        assert spool.load_mix("MMLA", 0, entries_per_core=999,
                              attacker_entries=300,
                              fingerprint="fp-1") is None
        assert spool.load_mix("MMLA", 0, entries_per_core=200,
                              attacker_entries=300,
                              fingerprint="other-runner") is None
        assert spool.load_mix("HHMA", 0, **self.PARAMS) is None
        assert spool.load_mix("MMLA", 3, **self.PARAMS) is None

    def test_damaged_spool_degrades_to_none(self, tmp_path):
        spool = TraceSpool(tmp_path)
        spool.dump_mix(tiny_mix(), seed=0, **self.PARAMS)
        victim = next(tmp_path.glob("MMLA-s0-0.rtrc"))
        victim.write_bytes(b"torn" * 3)
        assert spool.load_mix("MMLA", 0, **self.PARAMS) is None
        # A deleted column file is also just a miss.
        victim.unlink()
        assert spool.load_mix("MMLA", 0, **self.PARAMS) is None

    def test_empty_directory_misses(self, tmp_path):
        assert TraceSpool(tmp_path / "nope").load_mix(
            "MMLA", 0, **self.PARAMS) is None


SPEC = ExperimentSpec.tiny()


class TestSpooledSessions:
    def test_spooled_session_figures_bit_identical(self, tmp_path):
        with Session(SPEC, jobs=1, cache_dir="") as plain:
            reference = plain.figure("fig6", nrh=64)
        spool_dir = tmp_path / "spool"
        # The first session materialises the spool (while computing from
        # its own generated mixes) ...
        with Session(SPEC, jobs=1, cache_dir="",
                     spool_dir=str(spool_dir)) as writer:
            assert writer.spool_dir == str(spool_dir)
            first = writer.figure("fig6", nrh=64)
            assert list(spool_dir.glob("*.json"))  # manifests exist
        # ... and a second one *loads* every mix from it (mmap'd), with
        # bit-identical figure output.
        with Session(SPEC, jobs=1, cache_dir="",
                     spool_dir=str(spool_dir)) as reader:
            mix = reader.runner.mix("MMLA")
            assert any(t._mmap is not None for t in mix.traces)
            second = reader.figure("fig6", nrh=64)
        assert first.as_dict() == reference.as_dict()
        assert second.as_dict() == reference.as_dict()

    def test_materialise_spool_counts_and_skips(self, tmp_path):
        spool_dir = str(tmp_path / "spool")
        with Session(SPEC, jobs=1, cache_dir="",
                     spool_dir=spool_dir) as session:
            # tiny spec: one attack mix + one benign mix, one seed.
            assert session.materialise_spool() == 0  # done at construction
        with Session(SPEC, jobs=1, cache_dir="",
                     spool_dir=spool_dir) as again:
            assert again.materialise_spool() == 0

    def test_unwritable_spool_dir_fails_clean_not_leaking(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(OSError):
            # __init__ must tear the half-built session (executor pool /
            # broker) down before re-raising, not leak it.
            Session(SPEC, jobs=1, cache_dir="",
                    spool_dir=str(blocker / "spool"))

    def test_failed_cluster_session_removes_its_spool_tempdir(
            self, monkeypatch, tmp_path):
        # The session creates its temporary spool before the broker binds;
        # a bind failure must not leave the directory behind.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            with pytest.raises(OSError):
                Session(SPEC, backend="cluster", broker=f"127.0.0.1:{port}",
                        workers=1, cache_dir="")
        finally:
            holder.close()
        assert list(tmp_path.glob("repro-spool-*")) == []

    def test_mismatched_spool_is_ignored_not_trusted(self, tmp_path):
        spool_dir = str(tmp_path / "spool")
        other = ExperimentSpec.tiny(sim_cycles=2_000)
        with Session(other, jobs=1, cache_dir="", spool_dir=spool_dir):
            pass  # materialises for a *different* fingerprint
        with Session(SPEC, jobs=1, cache_dir="",
                     spool_dir=spool_dir) as session:
            mix = session.runner.mix("MMLA")
            # Regenerated (fingerprint mismatch), then re-spooled for us.
            reference = tiny_reference_mix()
            for ours, theirs in zip(mix.traces, reference.traces):
                assert ours.name == theirs.name


def tiny_reference_mix():
    # Spool-less session: regenerates the mix in-process for comparison.
    return Session(SPEC, jobs=1, cache_dir="").runner.mix("MMLA")
