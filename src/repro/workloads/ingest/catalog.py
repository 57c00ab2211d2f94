"""The workload catalog: ingested traces, addressable by name.

A :class:`WorkloadCatalog` is a directory of imported traces — each the
binary columnar format :meth:`repro.cpu.trace.Trace.dump_columnar` writes
(sessions and process-pool workers both load it with
:meth:`~repro.cpu.trace.Trace.load_columnar`) plus a CRC-framed JSON
manifest pinning everything the rest of the stack needs to trust the
entry:

* ``source_digest`` — sha256 of the raw input file, so re-ingesting the
  same source is a no-op (the warm path the ingest benchmark measures);
* ``trace_digest`` — sha256 of the columnar file as written, which is
  what folds into spec/harness **fingerprints**: a re-ingested trace
  lands every sweep that references it in a fresh
  :class:`~repro.analysis.runcache.RunCache` namespace, so stale cache
  entries can never be served for new trace content;
* the source format, entry count, scale (instructions / memory accesses),
  and a Table 3-style characterization summary
  (:func:`repro.workloads.characteristics.characterize_trace`).

Manifests use the same integrity discipline as RunCache v2 entries —
atomic writes (temp file + ``os.replace``) and the
:func:`~repro.analysis.runcache.frame_payload` magic+CRC32+length frame —
so a torn or corrupted manifest is *detected* and reported, never parsed
into a wrong entry.

The catalog root resolves like every other execution knob: an explicit
directory (``Session(workload_dir=...)``, CLI ``--workload-dir``) beats
the ``REPRO_WORKLOAD_DIR`` environment variable; with neither set there
is no catalog and ``ingest:`` mixes are rejected at spec validation.

Spec integration: a mix string of the form ``"ingest:<name> x<cores>"``
(e.g. ``"ingest:gap-bfs x4"``) places ``<cores>`` copies of the ingested
trace, one per core, each shifted into its own region of physical memory
exactly like the synthetic benign letters — :func:`catalog_mix` builds
the :class:`~repro.workloads.mixes.WorkloadMix`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import tempfile
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.runcache import frame_payload, unframe_payload
from repro.cpu.trace import Trace
from repro.dram.address import MappingScheme
from repro.dram.config import DeviceConfig
from repro.workloads.characteristics import characterize_trace
from repro.workloads.ingest.readers import detect_format, read_trace
from repro.workloads.mixes import WorkloadMix

#: Environment variable naming the catalog root directory.
WORKLOAD_DIR_ENV = "REPRO_WORKLOAD_DIR"

#: Bump when the manifest schema or file layout changes.
CATALOG_VERSION = 1

#: Catalog names must be filename- and mix-token-safe.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: The ``ingest:<name>[ x<cores>]`` mix-string grammar.
_MIX_PATTERN = re.compile(
    r"^ingest:(?P<name>[A-Za-z0-9][A-Za-z0-9_.-]*)"
    r"(?: x(?P<count>[1-9]\d*))?$"
)

#: Region size per core when placing catalog traces (matches the synthetic
#: mix builder's default disjoint-region layout).
_REGION_BYTES = 64 * 1024 * 1024


class CatalogError(ValueError):
    """A catalog problem: unknown name, damaged entry, or no catalog."""


@dataclass(frozen=True)
class CatalogEntry:
    """One ingested workload, as pinned by its manifest."""

    name: str
    format: str
    source_digest: str
    trace_digest: str
    entries: int
    instructions: int
    memory_accesses: int
    characterization: Tuple[Tuple[str, object], ...]

    def as_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["characterization"] = dict(self.characterization)
        data["version"] = CATALOG_VERSION
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CatalogEntry":
        if data.get("version") != CATALOG_VERSION:
            raise CatalogError(
                f"unsupported catalog manifest version "
                f"{data.get('version')!r}")
        character = data.get("characterization") or {}
        return cls(
            name=str(data["name"]),
            format=str(data["format"]),
            source_digest=str(data["source_digest"]),
            trace_digest=str(data["trace_digest"]),
            entries=int(data["entries"]),
            instructions=int(data["instructions"]),
            memory_accesses=int(data["memory_accesses"]),
            characterization=tuple(sorted(character.items())),
        )


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class WorkloadCatalog:
    """A directory of ingested traces plus their framed manifests."""

    def __init__(self, directory: Path | str) -> None:
        self.directory = Path(directory).expanduser()

    # ------------------------------------------------------------------ #
    @classmethod
    def resolve(cls, directory: Optional[str] = None
                ) -> Optional["WorkloadCatalog"]:
        """The configured catalog: explicit directory beats the env var.

        Returns ``None`` when neither names a directory — callers decide
        whether that is an error (``ingest:`` mixes) or simply "no
        ingested workloads" (validation listings).
        """

        root = directory or os.environ.get(WORKLOAD_DIR_ENV, "").strip()
        return cls(root) if root else None

    # ------------------------------------------------------------------ #
    def trace_path(self, name: str) -> Path:
        return self.directory / f"{name}.rtrc"

    def manifest_path(self, name: str) -> Path:
        return self.directory / f"{name}.manifest"

    def names(self) -> List[str]:
        """Every catalogued workload name, sorted."""

        if not self.directory.is_dir():
            return []
        return sorted(path.name[:-len(".manifest")]
                      for path in self.directory.glob("*.manifest"))

    # ------------------------------------------------------------------ #
    def _atomic_write(self, path: Path, payload: bytes) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(dir=str(self.directory),
                                             prefix=f".{path.name}.")
        try:
            with os.fdopen(handle, "wb") as temp:
                temp.write(payload)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def ingest(self, source: Path | str, name: Optional[str] = None,
               format: Optional[str] = None,
               device: Optional[DeviceConfig] = None,
               mapping: MappingScheme = MappingScheme.MOP) -> CatalogEntry:
        """Import ``source`` into the catalog as ``name``.

        Re-ingesting an unchanged source under an existing name is a
        no-op returning the existing entry (matched by source digest and
        format); changed content re-converts and re-pins the manifest,
        which changes ``trace_digest`` and therefore every fingerprint
        that references the workload.
        """

        source = Path(source)
        format = format or detect_format(source)
        name = name or source.name.partition(".")[0]
        if not _NAME_PATTERN.match(name):
            raise CatalogError(
                f"invalid workload name {name!r}: use letters, digits, "
                "'_', '.', '-' (leading alphanumeric)")
        source_digest = _sha256_file(source)
        existing = self._read_manifest(name)
        if (existing is not None
                and existing.source_digest == source_digest
                and existing.format == format
                and not self.verify(name)):
            return existing  # warm path: unchanged source, intact entry
        trace = read_trace(source, name=name, format=format)
        stats = characterize_trace(trace, device=device, mapping=mapping)
        # Write the columnar trace first (atomically), the manifest last:
        # a concurrent reader sees either the complete new entry or the
        # complete old one, never a manifest pointing at missing bytes.
        handle, temp_name = tempfile.mkstemp(dir=str(self._ensure_dir()),
                                             prefix=f".{name}.rtrc.")
        os.close(handle)
        try:
            trace.dump_columnar(temp_name)
            trace_digest = _sha256_file(Path(temp_name))
            os.replace(temp_name, self.trace_path(name))
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        entry = CatalogEntry(
            name=name,
            format=format,
            source_digest=source_digest,
            trace_digest=trace_digest,
            entries=len(trace),
            instructions=trace.total_instructions,
            memory_accesses=trace.memory_accesses,
            characterization=tuple(sorted({
                "rbmpki": round(stats.rbmpki, 4),
                "distinct_rows": stats.distinct_rows,
                "rows_over_512": stats.rows_over_512,
                "rows_over_128": stats.rows_over_128,
                "rows_over_64": stats.rows_over_64,
            }.items())),
        )
        payload = json.dumps(entry.as_dict(), indent=2,
                             sort_keys=True).encode("utf-8")
        self._atomic_write(self.manifest_path(name), frame_payload(payload))
        return entry

    def _ensure_dir(self) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        return self.directory

    def _read_manifest(self, name: str) -> Optional[CatalogEntry]:
        path = self.manifest_path(name)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        payload = unframe_payload(data)
        if payload is None:
            return None
        try:
            return CatalogEntry.from_dict(json.loads(payload))
        except (ValueError, KeyError, TypeError):
            return None

    def entry(self, name: str) -> CatalogEntry:
        """The manifest entry for ``name``; raises :class:`CatalogError`."""

        entry = self._read_manifest(name)
        if entry is None:
            available = self.names()
            raise CatalogError(
                f"no ingested workload {name!r} in catalog "
                f"{self.directory} (available: "
                f"{', '.join(available) if available else 'none'})")
        return entry

    def load_trace(self, name: str) -> Trace:
        """The ingested columnar trace, checked against its manifest."""

        entry = self.entry(name)
        path = self.trace_path(name)
        try:
            trace = Trace.load_columnar(path)
        except (OSError, ValueError) as exc:
            raise CatalogError(
                f"catalog trace {path} is missing or damaged: {exc}"
            ) from exc
        if len(trace) != entry.entries:
            raise CatalogError(
                f"catalog trace {path} holds {len(trace)} entries, "
                f"manifest pins {entry.entries}")
        return trace

    def verify(self, name: str) -> List[str]:
        """Integrity problems of one entry (empty list = intact)."""

        problems: List[str] = []
        entry = self._read_manifest(name)
        if entry is None:
            if self.manifest_path(name).exists():
                problems.append("manifest is damaged (bad frame/JSON)")
            else:
                problems.append("manifest is missing")
            return problems
        path = self.trace_path(name)
        if not path.is_file():
            problems.append(f"trace file {path.name} is missing")
            return problems
        if _sha256_file(path) != entry.trace_digest:
            problems.append(
                f"trace file {path.name} does not match the manifest "
                "digest (overwritten or corrupted)")
        try:
            trace = Trace.load_columnar(path)
        except ValueError as exc:
            problems.append(f"trace file {path.name} unreadable: {exc}")
            return problems
        if len(trace) != entry.entries:
            problems.append(
                f"trace file holds {len(trace)} entries, manifest pins "
                f"{entry.entries}")
        return problems

    def drop(self, name: str) -> bool:
        """Remove an entry; ``False`` when nothing existed to remove."""

        removed = False
        for path in (self.manifest_path(name), self.trace_path(name)):
            try:
                path.unlink()
                removed = True
            except OSError:
                pass
        return removed

    def digests(self, names: List[str]) -> Tuple[Tuple[str, str], ...]:
        """``(name, trace_digest)`` pairs, sorted — fingerprint food."""

        return tuple(sorted((name, self.entry(name).trace_digest)
                            for name in set(names)))


# ---------------------------------------------------------------------- #
# Mix-string integration
# ---------------------------------------------------------------------- #
def parse_catalog_mix(mix: str) -> Optional[Tuple[str, int]]:
    """``(name, cores)`` for an ``ingest:`` mix string, else ``None``.

    Raises :class:`CatalogError` for strings that *start* with
    ``ingest:`` but do not match the grammar, so typos fail loudly
    instead of falling through to the letter validator.
    """

    if not mix.startswith("ingest:"):
        return None
    match = _MIX_PATTERN.match(mix)
    if match is None:
        raise CatalogError(
            f"malformed catalog mix {mix!r}: expected "
            "'ingest:<name>[ x<cores>]' (e.g. 'ingest:gap-bfs x4')")
    count = match.group("count")
    return match.group("name"), int(count) if count else 1


def is_catalog_mix(mix: str) -> bool:
    """Whether a mix string addresses the catalog (``ingest:`` prefix)."""

    return mix.startswith("ingest:")


def catalog_mix(mix: str, directory: Optional[str] = None,
                region_bytes: int = _REGION_BYTES,
                expected_digest: Optional[str] = None) -> WorkloadMix:
    """Build the :class:`WorkloadMix` an ``ingest:`` mix string names.

    Each of the ``x<cores>`` copies is shifted into its own disjoint
    region of physical memory (region 0 stays reserved for attacker
    aggressor rows, like the synthetic letters) and named
    ``<name>#c<i>`` — per-core names keep the standalone-IPC baseline
    cache keys, which are ``(trace.name, len)``, from aliasing.

    ``expected_digest`` is the trace digest the caller fingerprinted
    (runner construction time); when the catalog now reports different
    content — the workload was re-ingested mid-session — the mix **falls
    back to the current catalog content with a warning**, since results
    would land in the stale fingerprint's cache namespace until a new
    session re-fingerprints.
    """

    parsed = parse_catalog_mix(mix)
    if parsed is None:
        raise CatalogError(f"{mix!r} is not an ingest: mix string")
    name, cores = parsed
    catalog = WorkloadCatalog.resolve(directory)
    if catalog is None:
        raise CatalogError(
            f"mix {mix!r} needs a workload catalog, but none is "
            f"configured: set {WORKLOAD_DIR_ENV} or pass "
            "Session(workload_dir=...)")
    entry = catalog.entry(name)
    if expected_digest is not None and entry.trace_digest != expected_digest:
        warnings.warn(
            f"ingested workload {name!r} changed since this session was "
            f"fingerprinted (digest {entry.trace_digest[:12]} != "
            f"{expected_digest[:12]}); falling back to the current "
            "catalog content — open a new Session to cache under the "
            "new fingerprint", stacklevel=2)
    base = catalog.load_trace(name)
    bubbles, addresses, flags = base.columns
    traces = []
    for core_index in range(cores):
        offset = (core_index + 1) * region_bytes
        shifted = array(addresses.typecode,
                        (address + offset for address in addresses))
        traces.append(Trace.from_columns(
            array(bubbles.typecode, bubbles), shifted, bytearray(flags),
            name=f"{name}#c{core_index}", loop=base.loop,
        ))
    return WorkloadMix(name=mix, traces=traces, attacker_threads=[])
