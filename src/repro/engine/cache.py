"""EvalCache: the engine's content-addressed result store.

Two tiers:

* an **in-process** dict (always on unless disabled) shared by every
  :class:`~repro.core.design_point.DesignPoint` in the process, so two
  sweeps over overlapping grids — or a fleet plan after a DSE run —
  never recompute a (chip, compiler, workload, batch, budget) tuple;
* an optional **on-disk** tier under a cache directory (default
  ``.repro_cache/``) made of *pack files*. A pack holds many
  ``(key, meta, payload)`` records, where ``meta`` is the human-readable
  :func:`~repro.engine.keys.key_meta` description of the entry. Disk
  entries survive process restarts, so benchmark suites warm across
  invocations.

Values are opaque to the cache (SimResult, Evaluation, ...); keys come
from :mod:`repro.engine.keys`, which folds in every chip/compiler field —
invalidation is by construction, never by mtime.

**Writes.** :meth:`EvalCache.batch` buffers the disk records of every
:meth:`~EvalCache.put` made inside it and writes them as one pack when
it exits; the grid sweeps wrap their store loops in it, so a sweep over
N missing points writes one pack per payload kind instead of N files.
A ``put`` outside a batch writes a one-record pack. A pack is written to
a temp file and lands via atomic ``os.replace`` under a name derived
from the SHA-256 of its content, so concurrent writers never collide
and a killed process never leaves a partial pack under a live name: a
process killed inside a batch loses only that batch, which is
recomputed on the next run.

**Reads.** An in-memory index maps each key to its record. It is filled
from the packs on the first disk lookup, and an index miss rescans the
directory for packs not seen yet, so entries another instance or process
wrote later are still found. Every pack starts with a magic and a
SHA-256 checksum over the rest of the file, verified before any of its
records is unpickled. A pack that fails the checksum, is truncated,
cannot be read, or holds a payload that fails to unpickle is
*quarantined* as a whole: moved to a ``quarantine/`` subdirectory,
logged, counted in :attr:`CacheStats.corrupt`, and its entries read as
misses so they are recomputed. Corruption is therefore never fatal and
never silently served. Per-entry ``*.pkl`` files from the pre-pack
layout are ignored (they read as misses); ``clear(disk=True)`` removes
them.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.obs.metrics import metrics

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment switches: ``REPRO_CACHE=0`` disables caching entirely,
#: ``REPRO_CACHE_DIR=<path>`` enables the disk tier at <path>.
ENV_DISABLE = "REPRO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"

#: Pack file format: magic + 32-byte SHA-256 of the body + body, where
#: the body is a pickled list of ``(key, meta, payload)`` records and
#: each payload is the pickled value.
_MAGIC = b"RPK1"
_DIGEST_BYTES = 32
_HEADER_BYTES = len(_MAGIC) + _DIGEST_BYTES
PACK_SUFFIX = ".pack"

#: Corrupt packs are moved here (relative to the cache dir), not deleted,
#: so a surprising corruption can still be inspected post-mortem.
QUARANTINE_DIR = "quarantine"

#: Files ``clear(disk=True)`` removes besides packs: per-entry pickles
#: and JSON sidecars of the pre-pack layout, and temp files left by a
#: killed writer.
_LEFTOVER_SUFFIXES = (".pkl", ".json", ".tmp")

_LOG = logging.getLogger(__name__)


@dataclass
class CacheStats:
    """Lookup counters for one :class:`EvalCache` instance."""

    hits: int = 0          # served from the in-process dict
    disk_hits: int = 0     # served from the disk tier (then promoted)
    misses: int = 0
    puts: int = 0
    corrupt: int = 0       # disk packs quarantined (checksum/unpickle)

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return (self.hits + self.disk_hits) / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    value: Any
    size_bytes: int
    meta: Optional[dict] = field(default=None)


class EvalCache:
    """Content-addressed store for evaluation records."""

    def __init__(self, disk_dir: Optional[os.PathLike] = None,
                 enabled: bool = True) -> None:
        if disk_dir is not None:
            disk_dir = Path(disk_dir)
            if disk_dir.exists() and not disk_dir.is_dir():
                raise ValueError(f"cache directory {str(disk_dir)!r} "
                                 f"exists and is not a directory")
        self._mem: dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self._enabled = enabled
        self._disk_dir = disk_dir
        self.stats = CacheStats()
        # Disk tier state, guarded by _disk_lock (taken before _lock,
        # never after): key -> (pack name, payload), the record count of
        # every pack already indexed (0 for a quarantined one), and the
        # records buffered by an open batch().
        self._disk_lock = threading.Lock()
        self._index: dict[str, tuple[str, bytes]] = {}
        self._packs: dict[str, int] = {}
        self._batch_depth = 0
        self._pending: list[tuple[str, Optional[dict], bytes]] = []

    # --------------------------------------------------------------- config

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def disk_dir(self) -> Optional[Path]:
        return self._disk_dir

    # --------------------------------------------------------------- lookup

    def get(self, key: str) -> Optional[Any]:
        """The cached value, or None. Disk hits are promoted to memory."""
        if not self._enabled:
            return None
        with self._lock:
            entry = self._mem.get(key)
            if entry is not None:
                self.stats.hits += 1
                metrics().count("engine.cache.hits")
                return entry.value
        found = self._disk_read(key)
        if found is not None:
            value, size = found
            with self._lock:
                self.stats.disk_hits += 1
                self._mem[key] = _Entry(value, size)
            metrics().count("engine.cache.disk_hits")
            return value
        self.stats.misses += 1
        metrics().count("engine.cache.misses")
        return None

    def put(self, key: str, value: Any,
            meta: Optional[dict] = None) -> None:
        """Store a value in memory and (if configured) on disk.

        Inside :meth:`batch` the disk record is buffered until the
        outermost batch exits; otherwise it lands now as a one-record
        pack.
        """
        if not self._enabled:
            return
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._mem[key] = _Entry(value, len(blob), meta)
            self.stats.puts += 1
        metrics().count("engine.cache.puts")
        if self._disk_dir is None:
            return
        record = (key, meta, blob)
        with self._disk_lock:
            if self._batch_depth:
                self._pending.append(record)
                return
        self._write_pack([record])

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Write every disk record put inside the block as one pack.

        Batches nest: the records land when the outermost one exits,
        also when it exits by an exception (the values were computed).
        Without a disk tier this is a no-op.
        """
        with self._disk_lock:
            self._batch_depth += 1
        try:
            yield
        finally:
            with self._disk_lock:
                self._batch_depth -= 1
                records: list = []
                if not self._batch_depth:
                    records, self._pending = self._pending, []
            if records:
                self._write_pack(records)

    # ------------------------------------------------------------ accounting

    def entry_count(self) -> int:
        with self._lock:
            return len(self._mem)

    def size_bytes(self) -> int:
        """Approximate in-memory footprint (pickled sizes)."""
        with self._lock:
            return sum(e.size_bytes for e in self._mem.values())

    def disk_entry_count(self) -> int:
        """Records in the packs now in the cache directory."""
        names = self._pack_names()
        with self._disk_lock:
            self._index_new_packs(names)
            return sum(self._packs.get(name, 0) for name in names)

    def disk_size_bytes(self) -> int:
        """Bytes of the packs now in the cache directory."""
        total = 0
        for name in self._pack_names():
            try:
                total += (self._disk_dir / name).stat().st_size
            except OSError:
                pass
        return total

    def clear(self, disk: bool = False) -> None:
        """Drop in-memory entries (and the disk tier when ``disk=True``).

        Clearing the disk removes every pack, any pre-pack per-entry
        file or leftover temp file, and the quarantined packs.
        """
        with self._lock:
            self._mem.clear()
        if not disk or self._disk_dir is None:
            return
        with self._disk_lock:
            self._index.clear()
            self._packs.clear()
            self._pending.clear()
        if not self._disk_dir.is_dir():
            return
        for suffix in (PACK_SUFFIX,) + _LEFTOVER_SUFFIXES:
            for path in list(self._disk_dir.glob(f"*{suffix}")):
                path.unlink(missing_ok=True)
        quarantine = self._disk_dir / QUARANTINE_DIR
        if quarantine.is_dir():
            for path in list(quarantine.iterdir()):
                path.unlink(missing_ok=True)

    def describe(self) -> str:
        disk = (f", disk {self.disk_entry_count()} entries / "
                f"{self.disk_size_bytes():,} B at {self._disk_dir}"
                if self._disk_dir is not None else ", disk tier off")
        state = "enabled" if self._enabled else "DISABLED"
        s = self.stats
        corrupt = f", {s.corrupt} quarantined" if s.corrupt else ""
        return (f"EvalCache ({state}): {self.entry_count()} entries / "
                f"{self.size_bytes():,} B in memory{disk}; "
                f"{s.hits} hits, {s.disk_hits} disk hits, {s.misses} misses "
                f"({s.hit_rate:.0%} hit rate){corrupt}")

    # ------------------------------------------------------------- disk tier

    def _pack_names(self) -> list[str]:
        """Pack file names now in the cache directory, sorted."""
        if self._disk_dir is None:
            return []
        try:
            names = os.listdir(self._disk_dir)
        except OSError:
            return []
        return sorted(n for n in names if n.endswith(PACK_SUFFIX))

    def _disk_read(self, key: str) -> Optional[tuple[Any, int]]:
        """(value, payload size) of a disk record, or None."""
        if self._disk_dir is None:
            return None
        with self._disk_lock:
            record = self._index.get(key)
            if record is None:
                self._index_new_packs(self._pack_names())
                record = self._index.get(key)
                if record is None:
                    return None
            name, payload = record
            try:
                return pickle.loads(payload), len(payload)
            except Exception:
                self._quarantine(name, "unreadable pickle")
                return None

    def _index_new_packs(self, names: list[str]) -> None:
        """Verify and index every listed pack not indexed yet.

        Caller holds ``_disk_lock``.
        """
        for name in names:
            if name in self._packs:
                continue
            try:
                raw = (self._disk_dir / name).read_bytes()
            except FileNotFoundError:
                continue  # removed since the listing
            except OSError:
                self._quarantine(name, "unreadable file")
                continue
            body = raw[_HEADER_BYTES:]
            if (len(raw) < _HEADER_BYTES or not raw.startswith(_MAGIC)
                    or hashlib.sha256(body).digest()
                    != raw[len(_MAGIC):_HEADER_BYTES]):
                self._quarantine(name, "checksum mismatch")
                continue
            try:
                self._add_pack(name, pickle.loads(body))
            except Exception:
                self._quarantine(name, "malformed records")

    def _add_pack(self, name: str, records: list) -> None:
        """Index a verified pack's records; caller holds ``_disk_lock``."""
        self._packs[name] = len(records)
        for key, _meta, payload in records:
            self._index[key] = (name, payload)

    def _quarantine(self, name: str, reason: str) -> None:
        """Move a corrupt pack aside and forget its records.

        Never served, never fatal; caller holds ``_disk_lock``.
        """
        self._packs[name] = 0
        for key in [k for k, (pack, _) in self._index.items()
                    if pack == name]:
            del self._index[key]
        with self._lock:
            self.stats.corrupt += 1
        metrics().count("engine.cache.corrupt")
        path = self._disk_dir / name
        target_dir = self._disk_dir / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / name)
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        _LOG.warning("quarantined corrupt cache pack %s (%s); "
                     "its entries will be recomputed", name, reason)

    def _write_pack(self, records: list) -> None:
        """Land ``records`` as one pack and index them."""
        body = pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(body).digest()
        name = digest.hex() + PACK_SUFFIX
        tmp = None
        try:
            self._disk_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self._disk_dir, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(digest)
                fh.write(body)
            os.replace(tmp, self._disk_dir / name)
        except OSError as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            _LOG.warning("could not write a cache pack to %s (%s); "
                         "%d entries stay in memory only",
                         self._disk_dir, exc, len(records))
            return
        with self._disk_lock:
            self._add_pack(name, records)


# ------------------------------------------------------------- global cache

_GLOBAL: Optional[EvalCache] = None
_GLOBAL_LOCK = threading.Lock()


def get_cache() -> EvalCache:
    """The process-wide cache, created on first use from the environment."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            disabled = os.environ.get(ENV_DISABLE, "").lower() in ("0", "off")
            disk = os.environ.get(ENV_DIR)
            _GLOBAL = EvalCache(disk_dir=Path(disk) if disk else None,
                                enabled=not disabled)
        return _GLOBAL


def configure_cache(disk_dir: Optional[os.PathLike] = None,
                    enabled: bool = True) -> EvalCache:
    """Replace the global cache (e.g. to turn the disk tier on)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = EvalCache(disk_dir=disk_dir, enabled=enabled)
        return _GLOBAL


def set_cache(cache: Optional[EvalCache]) -> Optional[EvalCache]:
    """Swap the global cache instance in; returns the previous one."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        previous, _GLOBAL = _GLOBAL, cache
        return previous
