"""External-trace ingestion: readers, catalog, spec wiring, end-to-end.

Contracts pinned here:

* the three reader front-ends (text, CSV, gzip-wrapped either) produce
  byte-identical columns for the same logical trace, and the ingested
  ``.rtrc`` round-trips through ``dump_columnar`` → ``load_columnar``
  unchanged;
* malformed input is rejected with the offending line number — never
  silently skipped, never a bare ``ValueError`` without location;
* the catalog is atomic and self-verifying: ``verify`` catches a flipped
  trace byte and a truncated manifest, re-ingesting unchanged input is a
  no-op, and a digest drift between fingerprint time and mix time warns
  and serves the current content;
* ``ExperimentSpec`` accepts ``ingest:<name> x4`` mixes, rejects unknown
  letters/names with the full menu (letters *and* ingested names), and
  folds catalog digests into the fingerprint — re-ingesting a modified
  source changes it, letter-only specs are unaffected;
* the new attacker letters (``S`` many-sided, ``X`` half-double) build
  distinct deterministic aggressor sets and are valid attack-mix cores;
* ``ingest_smoke``: one ingested trace drives ``Session.figure()``
  through serial, jobs=2, and the cluster backend bit-identically,
  cold and warm cache.
"""

from __future__ import annotations

import gzip
import json
import random

import pytest

from repro.api import ExperimentSpec, Session
from repro.api.cli import main
from repro.dram.config import DeviceConfig
from repro.workloads.attacker import (
    ATTACK_PATTERNS,
    AttackerConfig,
    aggressor_rows,
    generate_attacker_trace,
)
from repro.workloads.ingest import (
    CatalogError,
    IngestError,
    WORKLOAD_DIR_ENV,
    WorkloadCatalog,
    catalog_mix,
    detect_format,
    is_catalog_mix,
    parse_catalog_mix,
    read_trace,
)
from repro.workloads.mixes import ATTACKER_LETTERS, make_mix
from repro.cpu.trace import FLAG_BYPASS, FLAG_WRITE, Trace

TEXT = "2 L 0x100\n0 S 0x140 B\n# a comment line\n\n5 L 256\n"
CSV = "bubble,op,address,flags\n2,L,0x100,-\n0,S,0x140,B\n5,L,256,\n"


def write_variants(tmp_path):
    """The same logical trace in every on-disk encoding."""

    paths = {}
    paths["text"] = tmp_path / "t.trace"
    paths["text"].write_text(TEXT)
    paths["csv"] = tmp_path / "t.csv"
    paths["csv"].write_text(CSV)
    paths["text.gz"] = tmp_path / "t.trace.gz"
    with gzip.open(paths["text.gz"], "wt") as handle:
        handle.write(TEXT)
    paths["csv.gz"] = tmp_path / "t.csv.gz"
    with gzip.open(paths["csv.gz"], "wt") as handle:
        handle.write(CSV)
    return paths


def synthetic_lines(count: int, seed: int = 7):
    rng = random.Random(seed)
    lines = ["# synthetic ingest corpus"]
    for _ in range(count):
        op = "S" if rng.random() < 0.3 else "L"
        address = rng.randrange(0, 1 << 30) & ~0x3F
        flags = " B" if rng.random() < 0.05 else ""
        lines.append(f"{rng.randrange(0, 20)} {op} {hex(address)}{flags}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# Readers
# ---------------------------------------------------------------------- #
class TestReaders:
    def test_text_parses_ops_flags_and_comments(self, tmp_path):
        paths = write_variants(tmp_path)
        trace = read_trace(paths["text"])
        bubbles, addresses, flags = trace.columns
        assert list(bubbles) == [2, 0, 5]
        assert list(addresses) == [0x100, 0x140, 256]
        assert bytes(flags) == bytes(
            [0, FLAG_WRITE | FLAG_BYPASS, 0])
        assert trace.name == "t"
        assert trace.loop

    def test_all_encodings_byte_identical(self, tmp_path):
        paths = write_variants(tmp_path)
        reference = read_trace(paths["text"]).columns
        for key in ("csv", "text.gz", "csv.gz"):
            bubbles, addresses, flags = read_trace(paths[key]).columns
            assert list(bubbles) == list(reference[0]), key
            assert list(addresses) == list(reference[1]), key
            assert bytes(flags) == bytes(reference[2]), key

    def test_format_detection(self, tmp_path):
        paths = write_variants(tmp_path)
        assert detect_format(paths["text"]) == "text"
        assert detect_format(paths["csv"]) == "csv"
        assert detect_format(paths["csv.gz"]) == "csv"
        assert detect_format(paths["text.gz"]) == "text"

    @pytest.mark.parametrize("bad, needle", [
        ("2 L 0x100\nnot a line\n", "line 2"),
        ("x L 0x100\n", "line 1"),
        ("2 Q 0x100\n", "not L"),
        ("2 L zebra\n", "address"),
        ("-1 L 0x100\n", "bubble"),
        ("2 L 0x100 Z\n", "flag"),
        ("2 L\n", "expected"),
        ("", "no trace rows"),
        ("# only comments\n", "no trace rows"),
    ])
    def test_bad_text_rejected_with_location(self, tmp_path, bad, needle):
        path = tmp_path / "bad.trace"
        path.write_text(bad)
        with pytest.raises(IngestError) as info:
            read_trace(path)
        assert needle in str(info.value)
        assert "bad.trace" in str(info.value)

    def test_bad_csv_cell_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bubble,op,address\n2,L\n")
        with pytest.raises(IngestError, match="line 2"):
            read_trace(path)

    def test_truncated_gzip_rejected(self, tmp_path):
        path = tmp_path / "trunc.trace.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(synthetic_lines(200))
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(IngestError):
            read_trace(path)

    def test_round_trip_through_columnar(self, tmp_path):
        source = tmp_path / "rt.trace"
        source.write_text(synthetic_lines(500))
        trace = read_trace(source)
        dumped = tmp_path / "rt.rtrc"
        trace.dump_columnar(dumped)
        loaded = Trace.load_columnar(dumped)
        lb, la, lf = loaded.columns
        tb, ta, tf = trace.columns
        assert list(lb) == list(tb)
        assert list(la) == list(ta)
        assert bytes(lf) == bytes(tf)


# ---------------------------------------------------------------------- #
# Catalog
# ---------------------------------------------------------------------- #
class TestCatalog:
    def test_ingest_load_verify_drop(self, tmp_path):
        source = tmp_path / "w.trace"
        source.write_text(synthetic_lines(300))
        catalog = WorkloadCatalog(tmp_path / "catalog")
        entry = catalog.ingest(source, name="w")
        assert entry.entries == 300
        assert catalog.names() == ["w"]
        assert catalog.verify("w") == []
        loaded = catalog.load_trace("w")
        assert len(loaded) == 300
        characterization = dict(entry.characterization)
        assert characterization["distinct_rows"] > 0
        assert catalog.drop("w")
        assert catalog.names() == []
        assert not catalog.drop("w")

    def test_reingest_unchanged_is_noop(self, tmp_path):
        source = tmp_path / "w.trace"
        source.write_text(synthetic_lines(300))
        catalog = WorkloadCatalog(tmp_path / "catalog")
        first = catalog.ingest(source, name="w")
        mtime = catalog.trace_path("w").stat().st_mtime_ns
        again = catalog.ingest(source, name="w")
        assert again == first
        assert catalog.trace_path("w").stat().st_mtime_ns == mtime

    def test_verify_catches_flipped_trace_byte(self, tmp_path):
        source = tmp_path / "w.trace"
        source.write_text(synthetic_lines(300))
        catalog = WorkloadCatalog(tmp_path / "catalog")
        catalog.ingest(source, name="w")
        blob = bytearray(catalog.trace_path("w").read_bytes())
        blob[-1] ^= 0x01
        catalog.trace_path("w").write_bytes(bytes(blob))
        problems = catalog.verify("w")
        assert problems and any("digest" in p for p in problems)

    def test_verify_catches_truncated_manifest(self, tmp_path):
        source = tmp_path / "w.trace"
        source.write_text(synthetic_lines(300))
        catalog = WorkloadCatalog(tmp_path / "catalog")
        catalog.ingest(source, name="w")
        blob = catalog.manifest_path("w").read_bytes()
        catalog.manifest_path("w").write_bytes(blob[: len(blob) // 2])
        problems = catalog.verify("w")
        assert problems and any("manifest" in p for p in problems)

    def test_unknown_name_lists_available(self, tmp_path):
        source = tmp_path / "w.trace"
        source.write_text(synthetic_lines(100))
        catalog = WorkloadCatalog(tmp_path / "catalog")
        catalog.ingest(source, name="w")
        with pytest.raises(CatalogError, match="w"):
            catalog.entry("nope")

    def test_digest_mismatch_warns_and_serves_current(
            self, tmp_path, monkeypatch):
        source = tmp_path / "w.trace"
        source.write_text(synthetic_lines(100))
        catalog = WorkloadCatalog(tmp_path / "catalog")
        catalog.ingest(source, name="w")
        monkeypatch.setenv(WORKLOAD_DIR_ENV, str(tmp_path / "catalog"))
        with pytest.warns(UserWarning, match="changed since"):
            mix = catalog_mix("ingest:w x4", expected_digest="0" * 64)
        assert len(mix.traces) == 4

    def test_catalog_mix_offsets_cores(self, tmp_path, monkeypatch):
        source = tmp_path / "w.trace"
        source.write_text(synthetic_lines(100))
        catalog = WorkloadCatalog(tmp_path / "catalog")
        catalog.ingest(source, name="w")
        monkeypatch.setenv(WORKLOAD_DIR_ENV, str(tmp_path / "catalog"))
        mix = catalog_mix("ingest:w x4")
        assert [t.name for t in mix.traces] == [
            f"w#c{i}" for i in range(4)]
        assert mix.attacker_threads == []
        base_columns = [t.columns[1][0] for t in mix.traces]
        # Per-core address regions never alias.
        assert len(set(base_columns)) == 4

    def test_mix_grammar(self):
        assert parse_catalog_mix("ingest:gap-bfs x4") == ("gap-bfs", 4)
        assert parse_catalog_mix("ingest:w") == ("w", 1)
        assert parse_catalog_mix("MMLA") is None
        assert is_catalog_mix("ingest:w x4")
        assert not is_catalog_mix("HHLL")
        for bad in ("ingest:", "ingest: w", "ingest:w x0", "ingest:w y4"):
            with pytest.raises(CatalogError):
                parse_catalog_mix(bad)

    def test_no_catalog_configured_is_loud(self, monkeypatch):
        monkeypatch.delenv(WORKLOAD_DIR_ENV, raising=False)
        with pytest.raises(CatalogError, match=WORKLOAD_DIR_ENV):
            catalog_mix("ingest:w x4")


# ---------------------------------------------------------------------- #
# Spec validation + fingerprint folding
# ---------------------------------------------------------------------- #
class TestSpecIntegration:
    @pytest.fixture()
    def catalog_env(self, tmp_path, monkeypatch):
        source = tmp_path / "ext.trace"
        source.write_text(synthetic_lines(300))
        catalog = WorkloadCatalog(tmp_path / "catalog")
        catalog.ingest(source, name="ext")
        monkeypatch.setenv(WORKLOAD_DIR_ENV, str(tmp_path / "catalog"))
        return source, catalog

    def test_unknown_letter_lists_letters_and_names(self, catalog_env):
        with pytest.raises(ValueError) as info:
            ExperimentSpec.tiny(benign_mixes=("MMQZ",))
        message = str(info.value)
        assert "available letters" in message
        assert "ext" in message

    def test_unknown_letter_without_catalog(self, monkeypatch):
        monkeypatch.delenv(WORKLOAD_DIR_ENV, raising=False)
        with pytest.raises(ValueError, match="none"):
            ExperimentSpec.tiny(benign_mixes=("MMQZ",))

    def test_unknown_catalog_name_rejected(self, catalog_env):
        with pytest.raises(ValueError, match="no ingested workload"):
            ExperimentSpec.tiny(benign_mixes=("ingest:nope x4",))

    def test_catalog_mix_needs_catalog(self, monkeypatch):
        monkeypatch.delenv(WORKLOAD_DIR_ENV, raising=False)
        with pytest.raises(ValueError, match=WORKLOAD_DIR_ENV):
            ExperimentSpec.tiny(benign_mixes=("ingest:ext x4",))

    def test_catalog_mix_must_cover_cores(self, catalog_env):
        with pytest.raises(ValueError, match="x4"):
            ExperimentSpec.tiny(benign_mixes=("ingest:ext",))

    def test_ingested_mix_is_benign_only(self, catalog_env):
        with pytest.raises(ValueError, match="no attacker core"):
            ExperimentSpec.tiny(attack_mixes=("ingest:ext x4",))

    def test_new_attacker_letters_are_valid_attack_mixes(self):
        spec = ExperimentSpec.tiny(attack_mixes=("MMLS", "MMLX"))
        assert spec.attack_mixes == ("MMLS", "MMLX")

    def test_fingerprint_folds_catalog_digest(self, catalog_env):
        source, catalog = catalog_env
        plain = ExperimentSpec.tiny()
        spec = ExperimentSpec.tiny(
            benign_mixes=("MMLL", "ingest:ext x4"))
        before = spec.fingerprint()
        assert before != plain.fingerprint()
        # Re-ingest a modified source: the fingerprint must move.
        source.write_text(source.read_text() + "3 L 0x1000\n")
        catalog.ingest(source, name="ext")
        assert spec.fingerprint() != before
        # Letter-only specs never consult the catalog.
        assert plain.catalog_digests() == ()

    def test_letter_only_fingerprint_stable_without_catalog(
            self, monkeypatch):
        monkeypatch.delenv(WORKLOAD_DIR_ENV, raising=False)
        assert ExperimentSpec.tiny().fingerprint()


# ---------------------------------------------------------------------- #
# Attacker patterns (satellite: many-sided + half-double letters)
# ---------------------------------------------------------------------- #
class TestAttackPatterns:
    DEVICE = DeviceConfig.ddr5_4800(rows_per_bank=4096)

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
                self.DEVICE, AttackerConfig(pattern=pattern)))
            for pattern in ATTACK_PATTERNS
        }
        assert len(set(rows.values())) == len(ATTACK_PATTERNS)

    def test_traces_deterministic(self):
        for pattern in ATTACK_PATTERNS:
            config = AttackerConfig(pattern=pattern, seed=3)
            one = generate_attacker_trace(self.DEVICE, config)
            two = generate_attacker_trace(self.DEVICE, config)
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
        with pytest.raises(ValueError, match="ingest:"):
            make_mix("MMQZ", seed=1, entries_per_core=200,
                     attacker_entries=300)


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestCli:
    def test_ingest_list_verify_drop(self, tmp_path, capsys):
        source = tmp_path / "cli.trace"
        source.write_text(synthetic_lines(150))
        directory = str(tmp_path / "catalog")
        assert main(["workloads", "ingest", str(source),
                     "--name", "cli", "--workload-dir", directory]) == 0
        out = capsys.readouterr().out
        assert "ingested cli" in out and "ingest:cli x4" in out
        assert main(["workloads", "list",
                     "--workload-dir", directory]) == 0
        assert "cli" in capsys.readouterr().out
        assert main(["workloads", "verify",
                     "--workload-dir", directory]) == 0
        assert "ok" in capsys.readouterr().out
        assert main(["workloads", "drop", "cli",
                     "--workload-dir", directory]) == 0
        assert main(["workloads", "drop", "cli",
                     "--workload-dir", directory]) == 1

    def test_verify_reports_corruption(self, tmp_path, capsys):
        source = tmp_path / "cli.trace"
        source.write_text(synthetic_lines(150))
        directory = tmp_path / "catalog"
        catalog = WorkloadCatalog(directory)
        catalog.ingest(source, name="cli")
        blob = bytearray(catalog.trace_path("cli").read_bytes())
        blob[-1] ^= 0x01
        catalog.trace_path("cli").write_bytes(bytes(blob))
        assert main(["workloads", "verify",
                     "--workload-dir", str(directory)]) == 1

    def test_bad_source_is_rc_one(self, tmp_path, capsys):
        source = tmp_path / "bad.trace"
        source.write_text("garbage here\n")
        assert main(["workloads", "ingest", str(source),
                     "--workload-dir", str(tmp_path / "c")]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_no_catalog_is_loud(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(WORKLOAD_DIR_ENV, raising=False)
        with pytest.raises(SystemExit):
            main(["workloads", "list"])


# ---------------------------------------------------------------------- #
# End-to-end: ingested trace through every execution backend
# ---------------------------------------------------------------------- #
@pytest.mark.ingest_smoke
class TestIngestSmoke:
    def test_serial_jobs_cluster_bit_identical(self, tmp_path, monkeypatch):
        source = tmp_path / "ext.trace"
        source.write_text(synthetic_lines(400))
        directory = str(tmp_path / "catalog")
        assert main(["workloads", "ingest", str(source),
                     "--name", "ext", "--workload-dir", directory]) == 0
        monkeypatch.setenv(WORKLOAD_DIR_ENV, directory)
        spec = ExperimentSpec.tiny(
            benign_mixes=("MMLL", "ingest:ext x4"))

        figures = {}
        for label, kwargs in (
                ("serial", dict(jobs=1)),
                ("jobs2", dict(jobs=2)),
                ("cluster", dict(backend="cluster", workers=2))):
            cache_dir = str(tmp_path / f"cache-{label}")
            with Session(spec, cache_dir=cache_dir, **kwargs) as cold:
                figures[label] = cold.figure("fig13").as_dict()
                assert cold.runs_executed > 0
            with Session(spec, cache_dir=cache_dir, **kwargs) as warm:
                assert warm.figure("fig13").as_dict() == figures[label]
                assert warm.runs_executed == 0
        assert figures["serial"] == figures["jobs2"] == figures["cluster"]
