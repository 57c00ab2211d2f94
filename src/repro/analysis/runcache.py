"""Persistent on-disk cache of simulation results.

Repeated figure sweeps and benchmark invocations execute the same (mix,
mechanism, N_RH, BreakHammer) grid points over and over.  Within one
process :class:`repro.analysis.experiments.ExperimentRunner` memoises them;
:class:`RunCache` extends that memoisation across *processes and
invocations* by persisting each :class:`repro.sim.stats.RunStatistics` to
disk.

Lifecycle: a :class:`repro.api.Session` owns one cache per spec — the
directory is resolved once, up front, through
:func:`repro.api.session.resolve_execution` (explicit ``cache_dir`` beats
``REPRO_CACHE_DIR``; ``""`` force-disables), and the namespace fingerprint
is :meth:`repro.api.ExperimentSpec.fingerprint`, so one spec always maps to
one namespace no matter how (or how parallel) it is executed.

Layout and invalidation
-----------------------
Entries live under ``<root>/<fingerprint>/<key-digest>.pkl`` where

* ``<root>`` is the resolved cache directory (the session's ``cache_dir``,
  else ``REPRO_CACHE_DIR``); when neither names one the session builds no
  cache and every lookup simulates;
* ``<fingerprint>`` digests the complete spec + system + simulation
  configuration (see :func:`repro.sim.config.config_fingerprint`), so any
  configuration change — scale profile, engine, timings, thresholds —
  automatically lands in a fresh, empty namespace; stale namespaces are
  simply dead directories that can be deleted wholesale;
* ``<key-digest>`` digests the full run key (mix, seed, mechanism, N_RH,
  BreakHammer flag, trace lengths), so distinct grid points can never
  alias.

Writes are atomic (write to a temp file, then ``os.replace``) so parallel
sweep workers and concurrent invocations can share one cache directory
without corrupting entries.  Each entry is framed — a magic tag, the
payload length, and a CRC32 ahead of the pickled statistics — so a
truncated or corrupted file (a torn write on a crashing host, a partially
synced network filesystem, bit rot) is *detected*, treated as a miss, and
unlinked; the caller recomputes and the atomic ``put`` rewrites the entry.
Detection never relies on ``pickle`` happening to raise on mangled input.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Optional, Tuple

from repro.sim.stats import RunStatistics

#: Environment variable naming the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every existing cache entry on format changes.
#: Version 2 introduced the length+CRC entry frame.
CACHE_FORMAT_VERSION = 2

#: Entry frame: magic, CRC32 of the payload, payload length.
_ENTRY_MAGIC = b"RCHE"
_ENTRY_HEADER = struct.Struct("<4sIQ")


def frame_payload(payload: bytes) -> bytes:
    """Wrap a serialised entry in the integrity frame."""

    return _ENTRY_HEADER.pack(_ENTRY_MAGIC, zlib.crc32(payload),
                              len(payload)) + payload


def unframe_payload(data: bytes) -> Optional[bytes]:
    """The framed payload, or ``None`` if truncated/corrupt/foreign."""

    if len(data) < _ENTRY_HEADER.size:
        return None
    magic, crc, length = _ENTRY_HEADER.unpack_from(data)
    payload = data[_ENTRY_HEADER.size:]
    if magic != _ENTRY_MAGIC or len(payload) != length:
        return None
    if zlib.crc32(payload) != crc:
        return None
    return payload


def key_digest(key: Tuple) -> str:
    """A stable filename-safe digest of one run key."""

    payload = repr(key).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:32]


class RunCache:
    """A directory of pickled :class:`RunStatistics`, one file per run key."""

    def __init__(self, root: Path | str, fingerprint: str) -> None:
        self.root = Path(root)
        self.fingerprint = f"v{CACHE_FORMAT_VERSION}-{fingerprint}"
        self.directory = self.root / self.fingerprint
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.write_errors = 0
        self.corrupt_entries = 0

    # ------------------------------------------------------------------ #
    def _path(self, key: Tuple) -> Path:
        return self.directory / f"{key_digest(key)}.pkl"

    def get(self, key: Tuple) -> Optional[RunStatistics]:
        """The cached statistics for ``key``, or ``None`` on a miss.

        A truncated, corrupted, or foreign-format entry is a miss, never an
        error: the frame check (magic + length + CRC32) detects the damage,
        the dead file is unlinked (best effort), and the caller recomputes
        and rewrites it atomically through :meth:`put`.
        """

        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        payload = unframe_payload(data)
        if payload is not None:
            try:
                stats = RunStatistics.from_payload(payload)
            except Exception:
                # The frame was intact but the payload does not decode — a
                # stale pickle format, not damage; still just a miss.
                stats = None
            if stats is not None:
                self.hits += 1
                return stats
        self.misses += 1
        self.corrupt_entries += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def put(self, key: Tuple, stats: RunStatistics) -> None:
        """Persist ``stats`` under ``key`` (atomic, last writer wins).

        The cache is a pure optimisation: an unwritable directory (read
        only, full, permissions changed mid-run) must not abort the sweep,
        so write failures are swallowed and counted in ``write_errors``.
        """

        temp_name = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            payload = frame_payload(stats.to_payload())
            fd, temp_name = tempfile.mkstemp(dir=self.directory,
                                             suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(temp_name, self._path(key))
        except OSError:
            if temp_name is not None:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
            self.write_errors += 1
            return
        self.writes += 1

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for p in self.directory.glob("*.pkl"))

    def clear(self) -> int:
        """Delete this configuration's entries; return how many there were."""

        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> dict:
        """Observable cache counters plus the on-disk entry count.

        ``hits``/``misses``/``corrupt_entries`` are incremented on the
        existing :meth:`get` path and ``writes``/``write_errors`` on
        :meth:`put`; ``entries`` counts the files currently persisted in
        this fingerprint's namespace.  Surfaced by ``Session.stats()`` and
        printed by ``python -m repro.api run``.
        """

        return {
            "directory": str(self.directory),
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "write_errors": self.write_errors,
            "corrupt_entries": self.corrupt_entries,
        }
